package interp

import (
	"repro/internal/ctypes"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/token"
	"repro/internal/ub"
)

// LV designates an object region: [base+off, base+off+sizeof(t)),
// accessed as type t. Bit-fields carry their bit position within the unit.
type LV struct {
	Base             mem.ObjID
	Off              int64
	T                *ctypes.Type
	Bit              bool
	BitOff, BitWidth int
}

// object resolves the LV's object, diagnosing dead and bogus bases.
// This is the shared liveness side condition of the paper's deref-safest
// rule (§4.1.2); which violations are *reported* depends on the profile —
// unreported ones fall back to the de-facto behavior (crash, or access to
// the retained bytes of the dead object).
func (in *Interp) object(lv LV, pos token.Pos, forWrite bool) (*mem.Object, error) {
	if lv.Base == mem.NullBase {
		return nil, in.ubError(siteDeref, pos, "Dereferencing a null pointer")
	}
	if lv.Base == mem.InvalidBase {
		if in.armed(siteAccessForged) {
			return nil, in.ubError(siteAccessForged, pos, "Using a pointer forged from an integer")
		}
		return nil, &CrashError{Signal: "SIGSEGV", Detail: "access through a forged pointer"}
	}
	o, ok := in.store.Obj(lv.Base)
	if !ok {
		return nil, in.ubError(siteDeref, pos, "Dereferencing an invalid pointer")
	}
	if !o.Live {
		if o.Kind == mem.ObjHeap {
			if in.armed(siteAccessUAF) {
				return nil, in.ubError(siteAccessUAF, pos,
					"Accessing memory that has been freed")
			}
		} else if in.armed(siteAccessDead) {
			return nil, in.ubError(siteAccessDead, pos,
				"Referring to an object (%s) outside of its lifetime", o.Name)
		}
		// Fallback: the storage may still hold the old bytes.
		return o, nil
	}
	if o.Kind == mem.ObjFunc {
		return nil, in.ubError(siteDeref, pos, "Accessing a function designator as an object")
	}
	in.obsCheckPass(siteDeref, pos)
	return o, nil
}

// checkBounds verifies [off, off+n) lies within the object: the side
// condition O < Len of the paper's deref-safest rule. When the profile does
// not watch this object kind, oob is reported to the caller, which applies
// fallback semantics (reads yield zeroes, writes vanish — the neighboring
// stack memory of a real execution).
func (in *Interp) checkBounds(o *mem.Object, lv LV, n int64, pos token.Pos) (uerr *ub.Error, oob bool) {
	site := byStorage(o, siteBoundsHeap, siteBoundsStack)
	watched := in.armed(site)
	if lv.Off >= 0 && lv.Off+n <= o.Size {
		if watched {
			in.obsCheckPass(site, pos)
		}
		return nil, false
	}
	if !watched {
		return nil, true
	}
	if lv.Off == o.Size {
		return in.ubError(byStorage(o, siteOnePastHeap, siteOnePastStack), pos,
			"Dereferencing a pointer one past the end of an object (%s)", o.Name), true
	}
	return in.ubError(byStorage(o, siteOverrunHeap, siteBoundsStack), pos,
		"Accessing outside the bounds of object %s (offset %d, size %d of %d)",
		o.Name, lv.Off, n, o.Size), true
}

// checkAlias enforces the effective-type rule (C11 §6.5:7): an object's
// stored value may be accessed only by an allowed LV type. Heap objects
// have no declared type and are exempt.
func (in *Interp) checkAlias(o *mem.Object, lv LV, pos token.Pos) *ub.Error {
	if !in.armed(siteAlias) || o.DeclType == nil || lv.T == nil {
		return nil
	}
	if lv.T.Kind == ctypes.Struct || lv.T.Kind == ctypes.Union || lv.T.Kind == ctypes.Array {
		return nil // aggregate copies are byte-wise; members checked per access
	}
	if !ctypes.AliasAllowed(lv.T, o.DeclType) {
		return in.ubError(siteAlias, pos,
			"Accessing an object with declared type %s through an LV of type %s",
			o.DeclType, lv.T)
	}
	in.obsCheckPass(siteAlias, pos)
	return nil
}

// checkVolatile enforces C11 §6.7.3:6: an object defined volatile may not
// be referred to through a non-volatile LV.
func (in *Interp) checkVolatile(lv LV, n int64, pos token.Pos) *ub.Error {
	if !in.armed(siteVolatile) {
		return nil
	}
	if lv.T != nil && lv.T.Qual.Has(ctypes.QVolatile) {
		return nil
	}
	if len(in.volatileLocs) == 0 {
		// No volatile object exists in this execution: every access
		// trivially passes the check (the common case — skip the
		// per-byte lookups).
		in.obsCheckPass(siteVolatile, pos)
		return nil
	}
	for i := lv.Off; i < lv.Off+n; i++ {
		if _, ok := in.volatileLocs[mem.Loc{Obj: lv.Base, Off: i}]; ok {
			return in.ubError(siteVolatile, pos,
				"Referring to a volatile object through a non-volatile LV")
		}
	}
	in.obsCheckPass(siteVolatile, pos)
	return nil
}

// noteRead records a read in the sequence-point state and checks it against
// pending unsequenced writes: the paper's readByte rule (§4.2.1).
func (in *Interp) noteRead(base mem.ObjID, off, n int64, pos token.Pos) *ub.Error {
	if !in.armed(siteUnseqRead) {
		return nil
	}
	s := in.curSeq()
	if s.written.ContainsRange(base, off, n) {
		return in.ubError(siteUnseqRead, pos,
			"Unsequenced side effect on scalar object with value computation using the same object")
	}
	s.read.AddRange(base, off, n)
	in.obsCheckPass(siteUnseqRead, pos)
	return nil
}

// noteWrite records a write and checks it against pending unsequenced
// writes: the paper's writeByte rule (§4.2.1). Reads that determined the
// value being stored are permitted by C99/C11; following the paper, we
// check only the written set here and catch read-write conflicts in
// noteRead.
func (in *Interp) noteWrite(base mem.ObjID, off, n int64, pos token.Pos) *ub.Error {
	if !in.armed(siteUnseqWrite) {
		return nil
	}
	s := in.curSeq()
	if s.written.ContainsRange(base, off, n) {
		return in.ubError(siteUnseqWrite, pos,
			"Unsequenced side effect on scalar object with side effect of same object")
	}
	s.written.AddRange(base, off, n)
	in.obsCheckPass(siteUnseqWrite, pos)
	return nil
}

// read performs a checked, typed load: the deref-safest rule of §4.1.2 plus
// the §4.2/§4.3 checks.
func (in *Interp) read(lv LV, pos token.Pos) (mem.Value, error) {
	if len(in.opts.Monitors) > 0 {
		size := int64(0)
		if lv.T != nil && lv.T.IsComplete() {
			size = in.model.Size(lv.T)
		}
		if err := in.observe(spec.Event{Kind: spec.EvRead, Pos: pos,
			Obj: lv.Base, Off: lv.Off, Size: size, Type: lv.T}); err != nil {
			return nil, err
		}
	}
	if lv.T.Kind == ctypes.Void {
		// Reading a void LV produces the (nonexistent) void value;
		// any *use* of it is UB and is flagged at the use site.
		return mem.Void{}, nil
	}
	o, err := in.object(lv, pos, false)
	if err != nil {
		return nil, err
	}
	n := in.model.Size(lv.T)
	uerr, oob := in.checkBounds(o, lv, n, pos)
	if uerr != nil {
		return nil, uerr
	}
	if uerr := in.checkVolatile(lv, n, pos); uerr != nil {
		return nil, uerr
	}
	if uerr := in.checkAlias(o, lv, pos); uerr != nil {
		return nil, uerr
	}
	if uerr := in.noteRead(lv.Base, lv.Off, n, pos); uerr != nil {
		return nil, uerr
	}
	in.obsMem(obs.EvRead, o, lv.Off, n, pos)
	var data []mem.Byte
	if oob {
		// Unchecked out-of-bounds read: the adjacent memory of a real
		// stack frame — concretely, zero bytes.
		data = make([]mem.Byte, n)
	} else {
		data = o.Data[lv.Off : lv.Off+n]
	}
	return in.decode(o, lv, data, pos)
}

// decode interprets raw bytes as a value of lv.T, applying the profile's
// indeterminate-value and type-punning policies.
func (in *Interp) decode(o *mem.Object, lv LV, data []mem.Byte, pos token.Pos) (mem.Value, error) {
	t := lv.T
	switch {
	case t.Kind == ctypes.Ptr:
		p, res := in.store.DecodePtr(in.model, t, data)
		switch res {
		case mem.PtrOK:
			return p, nil
		case mem.PtrIndeterminate:
			if in.armed(siteUninitPtr) {
				return nil, in.indeterminate(siteUninitPtr, o, pos)
			}
			return mem.Ptr{T: t, Base: mem.InvalidBase}, nil
		case mem.PtrFromBytes:
			// Concrete non-pointer bytes read as a pointer: provenance is
			// gone; produce an invalid pointer, undefined when used.
			return mem.Ptr{T: t, Base: mem.InvalidBase}, nil
		default: // PtrTorn
			if in.armed(siteTornPtr) {
				return nil, in.ubError(siteTornPtr, pos,
					"Reading an object containing a partially overwritten pointer")
			}
			return mem.Ptr{T: t, Base: mem.InvalidBase}, nil
		}
	case t.IsFloat():
		f, res := mem.DecodeFloat(in.model, t, data)
		switch res {
		case mem.DecodeOK:
			return mem.Float{T: t, F: f}, nil
		case mem.DecodeIndeterminate:
			if in.armed(siteUninit) {
				return nil, in.indeterminate(siteUninit, o, pos)
			}
			return mem.Float{T: t, F: 0}, nil
		default:
			if in.armed(sitePtrBytes) {
				return nil, in.ubError(sitePtrBytes, pos,
					"Reading pointer bytes through a floating LV")
			}
			f, _ := mem.DecodeFloat(in.model, t, in.concretize(data))
			return mem.Float{T: t, F: f}, nil
		}
	case t.IsInteger():
		if lv.Bit {
			return in.readBitField(o, lv, data, pos)
		}
		bits, res := mem.DecodeInt(in.model, t, data)
		switch res {
		case mem.DecodeOK:
			return mem.BoxInt(t.Unqualified(), bits), nil
		case mem.DecodeIndeterminate:
			// Character-typed lvalues may copy indeterminate bytes
			// (§4.3.3, C11 §6.2.6.1:3-4); any other use is UB.
			if t.IsCharTy() && len(data) == 1 {
				return RawByte{T: t.Unqualified(), B: data[0]}, nil
			}
			if in.armed(siteUninit) {
				return nil, in.indeterminate(siteUninit, o, pos)
			}
			bits, _ := mem.DecodeInt(in.model, t, in.concretize(data))
			return mem.BoxInt(t.Unqualified(), bits), nil
		default: // pointer bytes
			if t.IsCharTy() && len(data) == 1 {
				// Byte-wise pointer copying (§4.3.2).
				return RawByte{T: t.Unqualified(), B: data[0]}, nil
			}
			if in.armed(sitePtrBytes) {
				return nil, in.ubError(sitePtrBytes, pos,
					"Reading bytes of a pointer through an integer LV of type %s", t)
			}
			bits, _ := mem.DecodeInt(in.model, t, in.concretize(data))
			return mem.BoxInt(t.Unqualified(), bits), nil
		}
	case t.IsAggregate():
		cp := make([]mem.Byte, len(data))
		copy(cp, data)
		return mem.Bytes{T: t, Data: cp}, nil
	}
	return nil, in.ubError(siteUnsupported, pos, "Reading a value of unsupported type %s", t)
}

// concretize renders bytes as the concrete octets a real execution would
// see (mem.Store.Concretize), counting every synthetic address it makes
// visible. Used only under reduced profiles.
func (in *Interp) concretize(data []mem.Byte) []mem.Byte {
	out, exposed := in.store.Concretize(data)
	in.synthCasts += int64(exposed)
	return out
}

func (in *Interp) indeterminate(s *CheckSite, o *mem.Object, pos token.Pos) *ub.Error {
	if o.Kind == mem.ObjHeap {
		return in.ubError(s, pos,
			"Reading uninitialized heap memory")
	}
	return in.ubError(s, pos,
		"Reading the indeterminate value of uninitialized object %s", o.Name)
}

func (in *Interp) readBitField(o *mem.Object, lv LV, data []mem.Byte, pos token.Pos) (mem.Value, error) {
	bits, res := mem.DecodeInt(in.model, lv.T.Unqualified(), data)
	if res == mem.DecodeIndeterminate {
		if in.armed(siteUninit) {
			return nil, in.indeterminate(siteUninit, o, pos)
		}
		bits = 0
	} else if res != mem.DecodeOK {
		if in.armed(sitePtrBytes) {
			return nil, in.ubError(sitePtrBytes, pos, "Reading pointer bytes through a bit-field")
		}
		bits, _ = mem.DecodeInt(in.model, lv.T.Unqualified(), in.concretize(data))
	}
	width := uint(lv.BitWidth)
	v := bits >> uint(lv.BitOff)
	v &= 1<<width - 1
	if lv.T.IsSigned(in.model) && v&(1<<(width-1)) != 0 {
		v |= ^uint64(0) << width
	}
	return mem.BoxInt(lv.T.Unqualified(), in.model.Wrap(lv.T, v)), nil
}

// write performs a checked, typed store.
func (in *Interp) write(lv LV, v mem.Value, pos token.Pos) error {
	if len(in.opts.Monitors) > 0 {
		size := int64(0)
		if lv.T != nil && lv.T.IsComplete() {
			size = in.model.Size(lv.T)
		}
		if err := in.observe(spec.Event{Kind: spec.EvWrite, Pos: pos,
			Obj: lv.Base, Off: lv.Off, Size: size, Type: lv.T}); err != nil {
			return err
		}
	}
	o, err := in.object(lv, pos, true)
	if err != nil {
		return err
	}
	n := in.model.Size(lv.T)
	uerr, oob := in.checkBounds(o, lv, n, pos)
	if uerr != nil {
		return uerr
	}
	// §6.4.5:7: modifying a string literal.
	if in.armed(siteStringLit) {
		if o.Kind == mem.ObjString {
			return in.ubError(siteStringLit, pos, "Attempting to modify a string literal")
		}
		in.obsCheckPass(siteStringLit, pos)
	}
	// §6.7.3:6 via the notWritable set (§4.2.2).
	if in.armed(siteConst) {
		if in.store.IsNotWritable(lv.Base, lv.Off, n) {
			return in.ubError(siteConst, pos,
				"Modifying an object defined with a const-qualified type")
		}
		in.obsCheckPass(siteConst, pos)
	}
	if uerr := in.checkVolatile(lv, n, pos); uerr != nil {
		return uerr
	}
	if uerr := in.checkAlias(o, lv, pos); uerr != nil {
		return uerr
	}
	if uerr := in.noteWrite(lv.Base, lv.Off, n, pos); uerr != nil {
		return uerr
	}
	in.obsMem(obs.EvWrite, o, lv.Off, n, pos)
	if oob {
		return nil // unchecked out-of-bounds write: vanishes into the frame
	}
	if lv.Bit {
		return in.writeBitField(o, lv, v, pos)
	}
	data, err := in.encode(v, lv.T)
	if err != nil {
		return err
	}
	copy(o.Data[lv.Off:lv.Off+n], data)
	return nil
}

func (in *Interp) writeBitField(o *mem.Object, lv LV, v mem.Value, pos token.Pos) error {
	iv, ok := v.(mem.Int)
	if !ok {
		return in.ubError(siteBitFieldStore, pos, "Storing a non-integer into a bit-field")
	}
	n := in.model.Size(lv.T)
	// Read-modify-write the unit; indeterminate other bits become zero
	// (a benign over-approximation).
	unit := o.Data[lv.Off : lv.Off+n]
	bits, res := mem.DecodeInt(in.model, lv.T.Unqualified(), unit)
	if res != mem.DecodeOK {
		bits = 0
	}
	width := uint(lv.BitWidth)
	maskBody := uint64(1)<<width - 1
	mask := maskBody << uint(lv.BitOff)
	bits = bits&^mask | (iv.Bits&maskBody)<<uint(lv.BitOff)
	copy(o.Data[lv.Off:lv.Off+n], mem.EncodeInt(in.model, lv.T.Unqualified(), bits))
	return nil
}

// checkPtrUsable diagnoses *use* of pointer values whose referent's
// lifetime has ended (C11 §6.2.4:2) — comparisons, arithmetic, dereference.
func (in *Interp) checkPtrUsable(p mem.Ptr, pos token.Pos) *ub.Error {
	if p.IsNull() {
		return nil
	}
	if p.Base == mem.InvalidBase {
		if in.armed(sitePtrForged) {
			return in.ubError(sitePtrForged, pos, "Using a pointer forged from an integer")
		}
		return nil
	}
	o, ok := in.store.Obj(p.Base)
	if !ok {
		return in.ubError(sitePtrInvalid, pos, "Using an invalid pointer")
	}
	if !o.Live {
		if o.Kind == mem.ObjHeap {
			if in.armed(sitePtrUAF) {
				return in.ubError(sitePtrUAF, pos, "Using a pointer to freed memory")
			}
			return nil
		}
		if in.armed(sitePtrDangling) {
			return in.ubError(sitePtrDangling, pos,
				"Using the value of a pointer to an object (%s) whose lifetime has ended", o.Name)
		}
	}
	return nil
}
