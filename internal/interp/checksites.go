package interp

// The check-site table. Every UB check the machine makes is one row,
// declared once below: a stable name, the catalog behavior the check
// reports, and the profile gate that arms it. A check names its row at the
// call: ubError and obsCheckPass take the row, and armed asks the row
// whether the run's profile arms it, so no list can drift from the code.
// The rows are the coverage ledger's registry (obs.CheckSites), and
// TestCheckSitesNamed fails on a row that no non-test code names.
//
// A row is one distinct check; several calls may share it. A bounds or
// lifetime check takes its gate from the object's storage, so it is two rows
// (byStorage picks). Pointer validity is decided once, by valid; the per-use
// table at the end gives each use's row and message per condition. Rows
// merge only where behavior, gate and message agree, and a pass counts under
// the row its failure reports. The exported rows are the ones the VM names.

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

// byStorage picks a check by the object's storage: the Heap gates watch
// heap objects, the Stack gates all others.
func byStorage[T any](o *mem.Object, heap, stack T) T {
	if o.Kind == mem.ObjHeap {
		return heap
	}
	return stack
}

var (
	// Pointer validity (valid, access.go): the rows the uses below report.
	siteDeref          = checkSite("access.deref", ub.InvalidDeref, gateAlways)
	sitePtrForged      = checkSite("ptr.forged", ub.PtrFromInt, gateForgedPtr)
	siteAccessUAF      = checkSite("access.uaf", ub.UseAfterFree, gateHeapLife)
	siteAccessDead     = checkSite("access.dead", ub.OutsideLifetime, gateStackLife)
	siteBoundsStack    = checkSite("access.bounds.stack", ub.PtrArithBounds, gateStackBounds)
	siteOverrunHeap    = checkSite("access.overrun.heap", ub.NegMallocOverrun, gateHeapBounds)
	siteOnePastHeap    = checkSite("access.one_past.heap", ub.PtrDerefOnePast, gateHeapBounds)
	siteOnePastStack   = checkSite("access.one_past.stack", ub.PtrDerefOnePast, gateStackBounds)
	siteStringLit      = checkSite("access.string_lit", ub.ModifyStringLit, gateStringLit)
	siteConst          = checkSite("access.const", ub.ModifyConst, gateConst)
	sitePtrInvalid     = checkSite("ptr.invalid", ub.InvalidDeref, gateAlways)
	sitePtrUAF         = checkSite("ptr.uaf", ub.UseAfterFree, gateHeapLife)
	sitePtrDangling    = checkSite("ptr.dangling", ub.DanglingPointer, gateStackLife)
	sitePtrAddNull     = checkSite("ptr.add_null", ub.PtrArithBounds, gatePtrCompare)
	sitePtrAddHeap     = checkSite("ptr.add.heap", ub.PtrArithBounds, gateHeapBounds)
	sitePtrAddStack    = checkSite("ptr.add.stack", ub.PtrArithBounds, gateStackBounds)
	siteDerefForged    = checkSite("eval.deref_forged", ub.PtrFromInt, gateForgedPtr)
	siteLibPtr         = checkSite("lib.ptr", ub.StrFuncBadPtr, gateAlways)
	siteLibForged      = checkSite("lib.forged", ub.PtrFromInt, gateForgedPtr)
	siteLibUAF         = checkSite("lib.uaf", ub.UseAfterFree, gateHeapLife)
	siteLibDangling    = checkSite("lib.dangling", ub.DanglingPointer, gateStackLife)
	siteLibBoundsHeap  = checkSite("lib.bounds.heap", ub.NegMallocOverrun, gateHeapBounds)
	siteLibBoundsStack = checkSite("lib.bounds.stack", ub.StrFuncBadPtr, gateStackBounds)
	siteLibStringLit   = checkSite("lib.string_lit", ub.ModifyStringLit, gateStringLit)
	siteLibConst       = checkSite("lib.const", ub.ModifyConst, gateConst)

	// Loads and stores (access.go): the lvalue's type and qualifiers, the
	// sequence-point sets and the bytes read.
	siteAlias         = checkSite("access.alias", ub.BadAlias, gateAlias)
	siteVolatile      = checkSite("access.volatile", ub.VolatileNonvolatile, gateVolatile)
	siteUnseqRead     = checkSite("access.unseq_read", ub.UnseqValueComp, gateSeq)
	siteUnseqWrite    = checkSite("access.unseq_write", ub.UnseqSideEffect, gateSeq)
	siteUninit        = checkSite("access.uninit", ub.IndeterminateValue, gateUninit)
	siteUninitPtr     = checkSite("access.uninit_ptr", ub.IndeterminateValue, gateUninitPtr)
	siteTornPtr       = checkSite("access.torn_ptr", ub.TrapRepresentation, gateUninitPtr)
	sitePtrBytes      = checkSite("access.ptr_bytes", ub.BadAlias, gateAlias)
	siteUnsupported   = checkSite("access.unsupported", ub.InvalidDeref, gateAlways)
	siteBitFieldStore = checkSite("access.bitfield_store", ub.BadAlias, gateAlways)

	// Pointer values (ptrSub and ptrCompare in eval.go).
	sitePtrSub     = checkSite("ptr.sub", ub.PtrSubDifferent, gatePtrCompare)
	sitePtrCompare = checkSite("ptr.compare", ub.PtrCompareDifferent, gatePtrCompare)

	// The library model (builtins.go): arguments, strings, allocation and
	// formatting.
	siteLibArg         = checkSite("lib.arg", ub.NullLibArg, gateAlways)
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

// A ptrCheck is a condition of pointer validity as a use reports it: the
// row, the message (it may name the object, offset, byte count and size as
// %[1]s, %[2]d, %[3]d, %[4]d), and whether a held condition records a pass.
type ptrCheck struct {
	site *CheckSite
	msg  string
	pass bool
}

// A ptrUse is one way of using a pointer: the check each condition of
// valid's order reports (nil: not checked), whether the use touches memory,
// and what an unwatched out-of-bounds access returns (nil: flag it, go on).
type ptrUse struct {
	null, forged, unknown, heapLife, stackLife, funcDesig *ptrCheck
	heapBounds, stackBounds, heapOnePast, stackOnePast    *ptrCheck
	stringLit, constObj                                   *ptrCheck
	touches                                               bool
	oob                                                   error
}

const (
	accessOOB = "Accessing outside the bounds of object %s (offset %d, size %d of %d)"
	onePast   = "Dereferencing a pointer one past the end of an object (%[1]s)"
	libOOB    = "Library function accesses outside the bounds of object %s (offset %d, %d bytes of %d)"
	ptrAddOOB = "Pointer arithmetic produces an address outside object %[1]s (offset %[2]d of size %[4]d)"
)

var (
	derefNull   = &ptrCheck{site: siteDeref, msg: "Dereferencing a null pointer"}
	ptrForged   = &ptrCheck{site: sitePtrForged, msg: "Using a pointer forged from an integer"}
	ptrInvalid  = &ptrCheck{site: sitePtrInvalid, msg: "Using an invalid pointer"}
	ptrUAF      = &ptrCheck{site: sitePtrUAF, msg: "Using a pointer to freed memory"}
	ptrDangling = &ptrCheck{site: sitePtrDangling, msg: "Using the value of a pointer to an object (%[1]s) whose lifetime has ended"}

	// An lvalue load (read) checks every condition but the write
	// protections a store (write) adds, and records the liveness and
	// bounds passes; a VLA's sizeof (object) checks only its object.
	useLoad = ptrUse{null: derefNull, forged: ptrForged, touches: true,
		unknown:      &ptrCheck{site: siteDeref, msg: "Dereferencing an invalid pointer"},
		heapLife:     &ptrCheck{site: siteAccessUAF, msg: "Accessing memory that has been freed"},
		stackLife:    &ptrCheck{site: siteAccessDead, msg: "Referring to an object (%[1]s) outside of its lifetime"},
		funcDesig:    &ptrCheck{site: siteDeref, msg: "Accessing a function designator as an object", pass: true},
		heapBounds:   &ptrCheck{site: siteOverrunHeap, msg: accessOOB, pass: true},
		stackBounds:  &ptrCheck{site: siteBoundsStack, msg: accessOOB, pass: true},
		heapOnePast:  &ptrCheck{site: siteOnePastHeap, msg: onePast},
		stackOnePast: &ptrCheck{site: siteOnePastStack, msg: onePast}}
	useStore = writing(useLoad,
		&ptrCheck{site: siteStringLit, msg: "Attempting to modify a string literal", pass: true},
		&ptrCheck{site: siteConst, msg: "Modifying an object defined with a const-qualified type", pass: true})
	useObject = func(u ptrUse) ptrUse { u.heapBounds, u.stackBounds = nil, nil; return u }(useLoad)

	// A library function checks the region it reads or writes.
	useLibRead = ptrUse{touches: true, oob: errSilentOOB,
		null:        &ptrCheck{site: siteLibPtr, msg: "Null pointer passed to a library function"},
		forged:      &ptrCheck{site: siteLibForged, msg: "Forged pointer passed to a library function"},
		unknown:     &ptrCheck{site: siteLibPtr, msg: "Invalid pointer passed to a library function"},
		heapLife:    &ptrCheck{site: siteLibUAF, msg: "Freed pointer passed to a library function"},
		stackLife:   &ptrCheck{site: siteLibDangling, msg: "Dangling pointer passed to a library function"},
		heapBounds:  &ptrCheck{site: siteLibBoundsHeap, msg: libOOB, pass: true},
		stackBounds: &ptrCheck{site: siteLibBoundsStack, msg: libOOB, pass: true}}
	useLibWrite = writing(useLibRead,
		&ptrCheck{site: siteLibStringLit, msg: "Library function modifying a string literal"},
		&ptrCheck{site: siteLibConst, msg: "Library function modifying a const object"})
	useLibString = func(u ptrUse) ptrUse {
		u.null = &ptrCheck{site: siteLibPtr, msg: "Null pointer passed as a string"}
		return u
	}(useLibRead)

	// A pointer value compared, subtracted, tested or decayed
	// (checkPtrUsable) is checked for provenance and lifetime, a
	// dereferenced one (derefLValue) for null too, a void one not for
	// lifetime. Arithmetic (ptrAdd) checks null, not provenance, and the
	// result as a zero-byte region, so one past the end is valid.
	usePtrValue = ptrUse{forged: ptrForged, unknown: ptrInvalid, heapLife: ptrUAF, stackLife: ptrDangling}
	useDeref    = ptrUse{null: derefNull, unknown: ptrInvalid, heapLife: ptrUAF, stackLife: ptrDangling,
		forged: &ptrCheck{site: siteDerefForged, msg: "Dereferencing a pointer forged from an integer"}}
	useDerefVoid = ptrUse{null: useDeref.null, forged: useDeref.forged, unknown: ptrInvalid}
	usePtrAdd    = ptrUse{unknown: ptrInvalid, heapLife: ptrUAF, stackLife: ptrDangling,
		null:        &ptrCheck{site: sitePtrAddNull, msg: "Arithmetic on a null pointer"},
		heapBounds:  &ptrCheck{site: sitePtrAddHeap, msg: ptrAddOOB},
		stackBounds: &ptrCheck{site: sitePtrAddStack, msg: ptrAddOOB}}
)

// writing is use u with the write protections str and cst.
func writing(u ptrUse, str, cst *ptrCheck) ptrUse { u.stringLit, u.constObj = str, cst; return u }
