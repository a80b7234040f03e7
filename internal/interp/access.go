package interp

import (
	"strings"

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

// valid decides whether use u may use the n bytes at p, by the side
// conditions of the deref rule (§4.1.2) in one order: null, forged, unknown
// object, lifetime, function designator, bounds (one past the end kept
// apart), string literal, const. u names the check each condition reports
// (checksites.go). Unreported, a null or forged pointer crashes a use that
// touches memory and leaves a value use with no object; out of bounds, u.oob
// is returned or oob set (a load reads zeroes, a store vanishes).
func (in *Interp) valid(u *ptrUse, p mem.Ptr, n int64, pos token.Pos) (o *mem.Object, oob bool, err error) {
	if p.Base == mem.NullBase || p.Base == mem.InvalidBase {
		c, what := u.null, "a null pointer"
		if p.Base == mem.InvalidBase {
			c, what = u.forged, "a forged pointer"
		}
		switch {
		case c != nil && in.armed(c.site):
			return nil, false, in.ptrError(c, nil, 0, 0, pos)
		case u.touches:
			return nil, false, &CrashError{Signal: "SIGSEGV", Detail: "access through " + what}
		}
		return nil, false, nil
	}
	o, ok := in.store.Obj(p.Base)
	if !ok {
		return nil, false, in.ptrError(u.unknown, nil, 0, 0, pos)
	}
	if !o.Live {
		if c := byStorage(o, u.heapLife, u.stackLife); c != nil && in.armed(c.site) {
			return nil, false, in.ptrError(c, o, p.Off, n, pos)
		}
	} else if c := u.funcDesig; c != nil {
		if o.Kind == mem.ObjFunc {
			return nil, false, in.ptrError(c, o, p.Off, n, pos)
		}
		in.ptrPass(c, pos)
	}
	if c := byStorage(o, u.heapBounds, u.stackBounds); c != nil {
		out := p.Off < 0 || p.Off+n > o.Size
		switch {
		case !in.armed(c.site):
			if out && u.oob != nil {
				return nil, true, u.oob
			}
			oob = out
		case out:
			if one := byStorage(o, u.heapOnePast, u.stackOnePast); one != nil && p.Off == o.Size {
				c = one
			}
			return nil, true, in.ptrError(c, o, p.Off, n, pos)
		default:
			in.ptrPass(c, pos)
		}
	}
	if c := u.stringLit; c != nil && in.armed(c.site) {
		if o.Kind == mem.ObjString {
			return nil, oob, in.ptrError(c, o, p.Off, n, pos)
		}
		in.ptrPass(c, pos)
	}
	if c := u.constObj; c != nil && in.armed(c.site) {
		if in.store.IsNotWritable(p.Base, p.Off, n) {
			return nil, oob, in.ptrError(c, o, p.Off, n, pos)
		}
		in.ptrPass(c, pos)
	}
	return o, oob, nil
}

// ptrError reports c's violation of n bytes at offset off of object o, or
// of a pointer with no object.
func (in *Interp) ptrError(c *ptrCheck, o *mem.Object, off, n int64, pos token.Pos) *ub.Error {
	if o == nil || !strings.Contains(c.msg, "%") {
		return in.ubError(c.site, pos, "%s", c.msg)
	}
	return in.ubError(c.site, pos, c.msg, o.Name, off, n, o.Size)
}

// ptrPass records a held condition under c's row, if c records passes.
func (in *Interp) ptrPass(c *ptrCheck, pos token.Pos) {
	if c.pass {
		in.obsCheckPass(c.site, pos)
	}
}

// object resolves an LV's object with the liveness side conditions (a
// VLA's sizeof).
func (in *Interp) object(lv LV, pos token.Pos) (*mem.Object, error) {
	o, _, err := in.valid(&useObject, mem.Ptr{Base: lv.Base, Off: lv.Off}, 0, pos)
	return o, err
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
	n := in.model.Size(lv.T)
	o, oob, err := in.valid(&useLoad, mem.Ptr{Base: lv.Base, Off: lv.Off}, n, pos)
	if err != nil {
		return nil, err
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
	n := in.model.Size(lv.T)
	o, oob, err := in.valid(&useStore, mem.Ptr{Base: lv.Base, Off: lv.Off}, n, pos)
	if err != nil {
		return err
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

// checkPtrUsable checks pointer values that are compared, subtracted,
// tested or decayed: their provenance and their referents' lifetime (C11
// §6.2.4:2).
func (in *Interp) checkPtrUsable(pos token.Pos, ps ...mem.Ptr) error {
	for _, p := range ps {
		if _, _, err := in.valid(&usePtrValue, p, 0, pos); err != nil {
			return err
		}
	}
	return nil
}
