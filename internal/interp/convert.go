package interp

import (
	"math"

	"repro/internal/ctypes"
	"repro/internal/mem"
	"repro/internal/token"
)

// usable unwraps values that carry deferred UB: using a noReturn value or
// doing arithmetic on a raw (indeterminate / pointer-fragment) byte.
func (in *Interp) usable(v mem.Value, pos token.Pos) (mem.Value, error) {
	switch v := v.(type) {
	case noReturn:
		if in.armed(siteNoReturn) {
			return nil, in.ubError(siteNoReturn, pos,
				"Using the value of a function call, but the function returned without a value")
		}
		return in.zeroOf(v.T), nil
	case RawByte:
		if c, ok := v.B.Octet(); ok {
			return mem.MakeInt(in.model, v.T, uint64(c)), nil
		}
		if p, idx, isFrag := in.store.Frag(v.B); isFrag {
			if in.armed(sitePtrByte) {
				return nil, in.ubError(sitePtrByte, pos,
					"Using a byte of a pointer representation as a number")
			}
			return mem.MakeInt(in.model, v.T, p.SynthAddr()>>(8*uint(idx))&0xff), nil
		}
		if in.armed(siteRawUninit) {
			return nil, in.ubError(siteRawUninit, pos,
				"Using an indeterminate value")
		}
		return mem.MakeInt(in.model, v.T, 0), nil
	case mem.Void:
		return nil, in.ubError(siteVoidValue, pos,
			"Using the (nonexistent) value of a void expression")
	}
	return v, nil
}

// convert converts v to type to (C11 §6.3). Conversions that the standard
// makes undefined are diagnosed here.
func (in *Interp) convert(v mem.Value, to *ctypes.Type, pos token.Pos) (mem.Value, error) {
	to = to.Unqualified()
	if to.Kind == ctypes.Void {
		return mem.Void{}, nil
	}
	// RawBytes may be copied into character objects unchanged.
	if rb, ok := v.(RawByte); ok {
		if to.IsCharTy() {
			return RawByte{T: to, B: rb.B}, nil
		}
		u, err := in.usable(v, pos)
		if err != nil {
			return nil, err
		}
		v = u
	}
	if _, ok := v.(noReturn); ok {
		return in.usable(v, pos)
	}
	if _, ok := v.(mem.Void); ok {
		return in.usable(v, pos)
	}
	switch val := v.(type) {
	case mem.Int:
		switch {
		case to.IsInteger():
			if to == val.T {
				return v, nil // already the right type: keep the existing box
			}
			return mem.BoxInt(to, in.model.Wrap(to, val.Bits)), nil
		case to.IsFloat():
			if val.T.IsSigned(in.model) {
				return mem.Float{T: to, F: in.truncFloat(to, float64(int64(val.Bits)))}, nil
			}
			return mem.Float{T: to, F: in.truncFloat(to, float64(val.Bits))}, nil
		case to.Kind == ctypes.Ptr:
			if val.Bits == 0 {
				return mem.Ptr{T: to, Base: mem.NullBase}, nil
			}
			// C11 §6.3.2.3:5: the result is implementation-defined and
			// may be a trap; provenance is lost (paper §4.3.1).
			return mem.Ptr{T: to, Base: mem.InvalidBase, Off: int64(val.Bits)}, nil
		}
	case mem.Float:
		switch {
		case to.Kind == ctypes.Bool:
			b := uint64(0)
			if val.F != 0 {
				b = 1
			}
			return mem.BoxInt(to, b), nil
		case to.IsInteger():
			// C11 §6.3.1.4:1: value must fit after truncation.
			f := math.Trunc(val.F)
			if math.IsNaN(f) ||
				f < float64(in.model.IntMin(to)) ||
				f > float64(in.model.IntMax(to)) {
				if in.armed(siteFloatInt) {
					return nil, in.ubError(siteFloatInt, pos,
						"Converting floating value %g to %s, which cannot represent it", val.F, to)
				}
				// x86 cvttsd2si yields the "integer indefinite" value.
				return mem.MakeInt(in.model, to, uint64(in.model.IntMin(to))), nil
			}
			if f < 0 {
				return mem.MakeInt(in.model, to, uint64(int64(f))), nil
			}
			return mem.MakeInt(in.model, to, uint64(f)), nil
		case to.IsFloat():
			f := in.truncFloat(to, val.F)
			if math.IsInf(f, 0) && !math.IsInf(val.F, 0) && in.armed(siteFloatDemote) {
				return nil, in.ubError(siteFloatDemote, pos,
					"Demoting floating value %g to %s, which cannot represent it", val.F, to)
			}
			return mem.Float{T: to, F: f}, nil
		}
	case mem.Ptr:
		switch {
		case to.Kind == ctypes.Bool:
			b := uint64(0)
			if !val.IsNull() {
				b = 1
			}
			return mem.BoxInt(to, b), nil
		case to.IsInteger():
			if val.Base > mem.NullBase {
				in.synthCasts++ // the synthetic address is allocation-order dependent
			}
			return mem.MakeInt(in.model, to, val.SynthAddr()), nil
		case to.Kind == ctypes.Ptr:
			out := val
			out.T = to
			// C11 §6.3.2.3:7: conversion to a more strictly aligned
			// pointer type must yield a correctly aligned pointer.
			if in.armed(siteMisaligned) && !val.IsNull() && val.Base != mem.InvalidBase &&
				to.Elem.IsComplete() && to.Elem.Kind != ctypes.Void {
				if a := in.model.Align(to.Elem); a > 1 && val.Off%a != 0 {
					return nil, in.ubError(siteMisaligned, pos,
						"Converting to %s yields a misaligned pointer (offset %d, alignment %d)",
						to, val.Off, a)
				}
			}
			return out, nil
		}
	case mem.Bytes:
		if ctypes.Compatible(val.T, to) {
			return val, nil
		}
	}
	return nil, in.ubError(SiteInternal, pos,
		"Unsupported conversion from %s to %s", v.CType(), to)
}

// zeroOf gives the register garbage a caller of a non-returning function
// would see — concretely, zero of the right shape.
func (in *Interp) zeroOf(t *ctypes.Type) mem.Value {
	switch {
	case t.IsFloat():
		return mem.Float{T: t, F: 0}
	case t.Kind == ctypes.Ptr:
		return mem.Ptr{T: t, Base: mem.NullBase}
	default:
		return mem.BoxInt(t, 0)
	}
}

// truncFloat rounds a float64 through the representation of to.
func (in *Interp) truncFloat(to *ctypes.Type, f float64) float64 {
	if to.Kind == ctypes.Float {
		return float64(float32(f))
	}
	return f
}
