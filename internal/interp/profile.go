package interp

import "strings"

// Profile selects which undefined behaviors the abstract machine *detects*.
// Where a check is disabled, execution continues with the de-facto x86-64
// semantics real programs exhibit (wrap on overflow, masked shifts, crash
// on division by zero, addressable stack neighborhoods, …).
//
// The full profile is the paper's kcc. The reduced profiles model the
// detection principles of the baseline tools of §5: a binary-instrumentation
// memory checker sees memory errors but "does not try to detect division by
// zero or integer overflow"; a pointer-metadata checker sees pointer errors
// but "was not designed to detect division by zero, uninitialized memory, or
// integer overflow"; a value analysis sees value-domain errors but not
// sequencing, effective types, or const-ness.
type Profile struct {
	Name  string
	gates gate
}

// A gate is a set of check families. A check site (checksites.go) is
// armed when the run's profile holds any bit of the site's gate; every
// run holds gateAlways.
type gate uint32

const (
	gateAlways gate = 1 << iota // library arguments, formats, the machine's own constraints

	// Arithmetic.
	gateDivZero   // division/remainder by zero (crash when unchecked)
	gateOverflow  // signed overflow in + - * and negation (wrap when unchecked)
	gateShift     // §6.5.7 shift conditions (mask/wrap when unchecked)
	gateFloatConv // float→int out of range (saturate when unchecked)

	// Sequencing and qualification.
	gateSeq       // unsequenced side effects (§6.5:2)
	gateConst     // writes through the notWritable set (§6.7.3:6)
	gateStringLit // writes to string literals (§6.4.5:7)
	gateVolatile  // volatile through non-volatile lvalue
	gateAlias     // effective-type rule (§6.5:7)

	// Indeterminate values.
	gateUninit    // use of indeterminate non-pointer values
	gateUninitPtr // indeterminate or torn bytes used as a pointer

	// Memory.
	gateHeapBounds  // out-of-bounds heap access
	gateStackBounds // out-of-bounds stack/static access
	gateHeapLife    // use after free
	gateStackLife   // dangling stack/block pointers
	gateBadFree     // free() misuse
	gateMisaligned  // misaligned pointer conversions
	gateForgedPtr   // pointers conjured from integers
	gateVoidDeref   // dereferencing void pointers
	gatePtrCompare  // relational compare/subtract across objects

	// Functions.
	gateCallMismatch // wrong argument count/types, incompatible fn ptr
	gateNoReturn     // using the value of a call that returned none

	// Declarations.
	gateVLASize // non-positive VLA sizes
)

// gateNames name the gates in the coverage ledger, in bit order.
var gateNames = [...]string{"Always", "DivZero", "Overflow", "Shift", "FloatConv",
	"Seq", "Const", "StringLit", "Volatile", "Alias", "Uninit", "UninitPtr",
	"HeapBounds", "StackBounds", "HeapLife", "StackLife", "BadFree", "Misaligned",
	"ForgedPtr", "VoidDeref", "PtrCompare", "CallMismatch", "NoReturn", "VLASize"}

// String joins the names of g's bits with "|": "DivZero|Overflow" reads
// "armed by either".
func (g gate) String() string {
	var b strings.Builder
	for i, name := range gateNames {
		if g&(1<<i) != 0 {
			if b.Len() > 0 {
				b.WriteByte('|')
			}
			b.WriteString(name)
		}
	}
	return b.String()
}

// KCCProfile detects everything — the paper's semantics-based checker.
func KCCProfile() *Profile {
	return &Profile{Name: "kcc", gates: ^gate(0)}
}

// MemcheckProfile models a Valgrind-style dynamic binary instrumentation
// checker: shadow memory gives it heap bounds, lifetime, bad free, and
// definedness (uninitialized value) tracking, but the stack is one
// addressable blob, and purely arithmetic or type-level UB is invisible at
// the instruction level. .rodata writes fault and are reported.
func MemcheckProfile() *Profile {
	return &Profile{Name: "memcheck", gates: gateUninit | gateUninitPtr | gateHeapBounds |
		gateHeapLife | gateBadFree | gateForgedPtr | gateStringLit}
}

// CheckPointerProfile models a pointer-metadata instrumentation tool
// (SemanticDesigns' CheckPointer): every pointer carries bounds and
// lifetime metadata, so stack and heap pointer errors and call mismatches
// are caught; values that are not pointers are not tracked at all, except
// that uninitialized *pointers* have no metadata.
func CheckPointerProfile() *Profile {
	return &Profile{Name: "checkptr", gates: gateUninitPtr | gateHeapBounds | gateStackBounds |
		gateHeapLife | gateStackLife | gateBadFree | gateForgedPtr | gatePtrCompare |
		gateCallMismatch | gateStringLit}
}

// ValueAnalysisProfile models an abstract-interpretation value analysis run
// as a C interpreter (the mode Frama-C's plugin was run in, §5.1.2
// footnote): every value-domain error is precise — division by zero,
// overflow, bounds, uninitialized reads — but evaluation-order sequencing,
// effective types, and const-ness are outside the abstraction.
func ValueAnalysisProfile() *Profile {
	return &Profile{Name: "value-analysis", gates: gateDivZero | gateOverflow | gateShift |
		gateFloatConv | gateUninit | gateUninitPtr | gateHeapBounds | gateStackBounds |
		gateHeapLife | gateStackLife | gateBadFree | gateForgedPtr | gatePtrCompare |
		gateCallMismatch | gateVLASize}
}

// CrashError models a hardware fault (SIGFPE, SIGSEGV) under fallback
// semantics. A crash is not a diagnosis: the paper's Figure 2 scores
// Valgrind at 0% on division by zero precisely because the program merely
// dies (or worse, doesn't).
type CrashError struct {
	Signal string
	Detail string
}

func (e *CrashError) Error() string {
	return "program crashed with " + e.Signal + ": " + e.Detail
}
