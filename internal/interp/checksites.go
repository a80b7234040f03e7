package interp

// The check-site table. Every UB check the machine makes is one row,
// declared once below: a stable name, the catalog behavior the check
// reports, and the profile gate that arms it. A check names its row at the
// call: ubError and obsCheckPass take the row, and armed asks the row
// whether the run's profile arms it, so no list can drift from the code.
// The rows are the coverage ledger's registry (obs.CheckSites), and
// TestCheckSitesNamed fails on a row that no non-test code names.
//
// A row is one distinct check; several calls may share it. A bounds check
// takes its gate from the object's storage, so it is two rows, one per
// storage class (byStorage picks). The exported rows are the ones the
// bytecode VM names too.

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/ub"
)

// A CheckSite is one row of the table; its name lives in the ledger.
type CheckSite struct {
	b    *ub.Behavior
	gate gate
}

// checkSite declares a row and registers it with the coverage ledger.
func checkSite(name string, b *ub.Behavior, g gate) *CheckSite {
	obs.RegisterCheckSite(b.Code, g.String(), name)
	return &CheckSite{b: b, gate: g}
}

// armed reports whether the run's profile arms check site s.
func (in *Interp) armed(s *CheckSite) bool { return in.gates&s.gate != 0 }

// byStorage picks a bounds check's row by the object's storage: heap
// objects are watched by HeapBounds, all others by StackBounds.
func byStorage(o *mem.Object, heap, stack *CheckSite) *CheckSite {
	if o.Kind == mem.ObjHeap {
		return heap
	}
	return stack
}

var (
	// Loads and stores (access.go): the lvalue's object, its bounds,
	// type and qualifiers, the sequence-point sets and the bytes read.
	siteDeref         = checkSite("access.deref", ub.InvalidDeref, gateAlways)
	siteAccessForged  = checkSite("access.forged", ub.PtrFromInt, gateForgedPtr)
	siteAccessUAF     = checkSite("access.uaf", ub.UseAfterFree, gateHeapLife)
	siteAccessDead    = checkSite("access.dead", ub.OutsideLifetime, gateStackLife)
	siteBoundsHeap    = checkSite("access.bounds.heap", ub.PtrArithBounds, gateHeapBounds) // a heap overrun reports access.overrun.heap
	siteBoundsStack   = checkSite("access.bounds.stack", ub.PtrArithBounds, gateStackBounds)
	siteOverrunHeap   = checkSite("access.overrun.heap", ub.NegMallocOverrun, gateHeapBounds)
	siteOnePastHeap   = checkSite("access.one_past.heap", ub.PtrDerefOnePast, gateHeapBounds)
	siteOnePastStack  = checkSite("access.one_past.stack", ub.PtrDerefOnePast, gateStackBounds)
	siteAlias         = checkSite("access.alias", ub.BadAlias, gateAlias)
	siteVolatile      = checkSite("access.volatile", ub.VolatileNonvolatile, gateVolatile)
	siteUnseqRead     = checkSite("access.unseq_read", ub.UnseqValueComp, gateSeq)
	siteUnseqWrite    = checkSite("access.unseq_write", ub.UnseqSideEffect, gateSeq)
	siteUninit        = checkSite("access.uninit", ub.IndeterminateValue, gateUninit)
	siteUninitPtr     = checkSite("access.uninit_ptr", ub.IndeterminateValue, gateUninitPtr)
	siteTornPtr       = checkSite("access.torn_ptr", ub.TrapRepresentation, gateUninitPtr)
	sitePtrBytes      = checkSite("access.ptr_bytes", ub.BadAlias, gateAlias)
	siteUnsupported   = checkSite("access.unsupported", ub.InvalidDeref, gateAlways)
	siteStringLit     = checkSite("access.string_lit", ub.ModifyStringLit, gateStringLit)
	siteConst         = checkSite("access.const", ub.ModifyConst, gateConst)
	siteBitFieldStore = checkSite("access.bitfield_store", ub.BadAlias, gateAlways)

	// Pointer values (checkPtrUsable; ptrAdd, ptrSub and ptrCompare in
	// eval.go).
	sitePtrForged   = checkSite("ptr.forged", ub.PtrFromInt, gateForgedPtr)
	sitePtrInvalid  = checkSite("ptr.invalid", ub.InvalidDeref, gateAlways)
	sitePtrUAF      = checkSite("ptr.uaf", ub.UseAfterFree, gateHeapLife)
	sitePtrDangling = checkSite("ptr.dangling", ub.DanglingPointer, gateStackLife)
	sitePtrAddNull  = checkSite("ptr.add_null", ub.PtrArithBounds, gatePtrCompare)
	sitePtrAddHeap  = checkSite("ptr.add.heap", ub.PtrArithBounds, gateHeapBounds)
	sitePtrAddStack = checkSite("ptr.add.stack", ub.PtrArithBounds, gateStackBounds)
	sitePtrSub      = checkSite("ptr.sub", ub.PtrSubDifferent, gatePtrCompare)
	sitePtrCompare  = checkSite("ptr.compare", ub.PtrCompareDifferent, gatePtrCompare)

	// The library model (builtins.go): arguments, the regions a function
	// reads or writes, allocation and formatting.
	siteLibArg         = checkSite("lib.arg", ub.NullLibArg, gateAlways)
	siteLibPtr         = checkSite("lib.ptr", ub.StrFuncBadPtr, gateAlways)
	siteLibForged      = checkSite("lib.forged", ub.PtrFromInt, gateAlways)
	siteLibUAF         = checkSite("lib.uaf", ub.UseAfterFree, gateHeapLife)
	siteLibDangling    = checkSite("lib.dangling", ub.DanglingPointer, gateStackLife)
	siteLibBoundsHeap  = checkSite("lib.bounds.heap", ub.NegMallocOverrun, gateHeapBounds)
	siteLibBoundsStack = checkSite("lib.bounds.stack", ub.StrFuncBadPtr, gateStackBounds)
	siteLibStringLit   = checkSite("lib.string_lit", ub.ModifyStringLit, gateStringLit)
	siteLibConst       = checkSite("lib.const", ub.ModifyConst, gateConst)
	siteLibNoNulHeap   = checkSite("lib.no_nul.heap", ub.StrFuncBadPtr, gateHeapBounds)
	siteLibNoNulStack  = checkSite("lib.no_nul.stack", ub.StrFuncBadPtr, gateStackBounds)
	siteLibUninit      = checkSite("lib.uninit", ub.IndeterminateValue, gateUninit)
	siteLibPtrBytes    = checkSite("lib.ptr_bytes", ub.TrapRepresentation, gateAlias)
	siteRealloc        = checkSite("lib.realloc", ub.BadRealloc, gateAlways)
	siteFree           = checkSite("lib.free", ub.BadFree, gateBadFree)
	siteFreeOffset     = checkSite("lib.free_offset", ub.Catalog[175], gateBadFree)
	siteAbs            = checkSite("lib.abs", ub.Catalog[129], gateAlways)
	siteMemcpyOverlap  = checkSite("lib.memcpy_overlap", ub.MemcpyOverlap, gateAlways)
	siteStrcpyOverlap  = checkSite("lib.strcpy_overlap", ub.StrcpyOverlap, gateAlways)
	siteStrncpyOverlap = checkSite("lib.strncpy_overlap", ub.Catalog[188], gateAlways)
	siteStrncpyPast    = checkSite("lib.strncpy_past", ub.StrFuncBadPtr, gateAlways)
	siteCtype          = checkSite("lib.ctype", ub.Catalog[113], gateAlways)
	sitePrintfArgs     = checkSite("printf.args", ub.Catalog[148], gateAlways)
	sitePrintfFormat   = checkSite("printf.format", ub.BadFormat, gateAlways)
	sitePrintfN        = checkSite("printf.n", ub.Catalog[153], gateAlways)

	// Values and conversions (convert.go).
	siteNoReturn    = checkSite("conv.no_return", ub.NoReturnValue, gateNoReturn)
	sitePtrByte     = checkSite("conv.ptr_byte", ub.TrapRepresentation, gateAlias)
	siteRawUninit   = checkSite("conv.uninit", ub.IndeterminateValue, gateUninit)
	siteVoidValue   = checkSite("conv.void", ub.VoidValueUsed, gateAlways)
	siteFloatInt    = checkSite("conv.float_int", ub.FloatConvRange, gateFloatConv)
	siteFloatDemote = checkSite("conv.float_demote", ub.FloatDemote, gateFloatConv)
	siteMisaligned  = checkSite("conv.misaligned", ub.MisalignedPtr, gateMisaligned)

	// Expressions (eval.go).
	SiteInternal      = checkSite("interp.internal", ub.Catalog[0], gateAlways) // a program the machine cannot run
	SiteIdentDead     = checkSite("eval.ident_dead", ub.OutsideLifetime, gateAlways)
	SiteNonPtr        = checkSite("eval.non_ptr", ub.InvalidDeref, gateAlways)
	siteDerefNull     = checkSite("eval.deref_null", ub.InvalidDeref, gateAlways)
	siteDerefForged   = checkSite("eval.deref_forged", ub.PtrFromInt, gateAlways)
	siteDerefVoid     = checkSite("eval.deref_void", ub.DerefVoid, gateVoidDeref)
	siteNegOverflow   = checkSite("arith.neg_overflow", ub.SignedOverflow, gateOverflow)
	siteOverflow      = checkSite("arith.overflow", ub.SignedOverflow, gateOverflow)
	siteDivZero       = checkSite("arith.div_zero", ub.DivByZero, gateDivZero)
	siteDivOverflow   = checkSite("arith.div_overflow", ub.DivOverflow, gateDivZero|gateOverflow)
	siteShiftCount    = checkSite("arith.shift_count", ub.ShiftTooFar, gateShift)
	siteShiftNeg      = checkSite("arith.shift_neg", ub.ShiftNegLeft, gateShift)
	siteShiftOverflow = checkSite("arith.shift_overflow", ub.ShiftOverflow, gateShift)

	// Calls and declarations (exec.go).
	siteUndefinedFunc = checkSite("call.undefined", ub.Catalog[82], gateAlways)
	siteCallTarget    = checkSite("call.target", ub.InvalidDeref, gateAlways)
	siteCallNotFunc   = checkSite("call.not_func", ub.BadFuncPtrCall, gateAlways)
	siteCallType      = checkSite("call.type", ub.BadFuncPtrCall, gateCallMismatch)
	siteCallArgCount  = checkSite("call.arg_count", ub.BadCallNoProto, gateCallMismatch)
	siteCallArgTypes  = checkSite("call.arg_types", ub.BadCallArgs, gateCallMismatch)
	SiteVLAType       = checkSite("decl.vla_type", ub.VLANotPositive, gateAlways)
	SiteVLASize       = checkSite("decl.vla_size", ub.VLANotPositive, gateVLASize)
)
