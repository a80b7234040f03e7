package interp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/mem"
	"repro/internal/token"
)

// builtin implements one library function natively (the paper's kcc links a
// C library implemented inside the semantics; ours lives here, with every
// §7 precondition checked).
type builtin func(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error)

var builtins map[string]builtin

func init() {
	builtins = map[string]builtin{
		"printf":        biPrintf,
		"fprintf":       biFprintf,
		"sprintf":       biSprintf,
		"snprintf":      biSnprintf,
		"puts":          biPuts,
		"putchar":       biPutchar,
		"getchar":       biGetchar,
		"malloc":        biMalloc,
		"calloc":        biCalloc,
		"realloc":       biRealloc,
		"free":          biFree,
		"exit":          biExit,
		"abort":         biAbort,
		"atoi":          biAtoi,
		"atol":          biAtoi,
		"abs":           biAbs,
		"labs":          biAbs,
		"rand":          biRand,
		"srand":         biSrand,
		"memcpy":        biMemcpy,
		"memmove":       biMemmove,
		"memset":        biMemset,
		"memcmp":        biMemcmp,
		"memchr":        biMemchr,
		"strlen":        biStrlen,
		"strcpy":        biStrcpy,
		"strncpy":       biStrncpy,
		"strcat":        biStrcat,
		"strncat":       biStrncat,
		"strcmp":        biStrcmp,
		"strncmp":       biStrncmp,
		"strchr":        biStrchr,
		"strrchr":       biStrrchr,
		"strstr":        biStrstr,
		"isdigit":       biCtype(func(c int) bool { return c >= '0' && c <= '9' }),
		"isalpha":       biCtype(func(c int) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }),
		"isspace":       biCtype(func(c int) bool { return c == ' ' || c >= 9 && c <= 13 }),
		"isupper":       biCtype(func(c int) bool { return c >= 'A' && c <= 'Z' }),
		"islower":       biCtype(func(c int) bool { return c >= 'a' && c <= 'z' }),
		"toupper":       biToupper,
		"tolower":       biTolower,
		"__assert_fail": biAssertFail,
	}
}

// ---------- argument helpers ----------

func (in *Interp) argInt(args []mem.Value, i int, pos token.Pos) (mem.Int, error) {
	if i >= len(args) {
		return mem.Int{}, in.ubError(siteLibArg, pos, "Missing argument %d to library function", i+1)
	}
	v, err := in.usable(args[i], pos)
	if err != nil {
		return mem.Int{}, err
	}
	switch v := v.(type) {
	case mem.Int:
		return v, nil
	case mem.Float:
		return mem.MakeInt(in.model, ctypes.TLong, uint64(int64(v.F))), nil
	}
	return mem.Int{}, in.ubError(siteLibArg, pos, "Library function expected an integer argument")
}

func (in *Interp) argPtr(args []mem.Value, i int, pos token.Pos) (mem.Ptr, error) {
	if i >= len(args) {
		return mem.Ptr{}, in.ubError(siteLibArg, pos, "Missing argument %d to library function", i+1)
	}
	v, err := in.usable(args[i], pos)
	if err != nil {
		return mem.Ptr{}, err
	}
	switch v := v.(type) {
	case mem.Ptr:
		return v, nil
	case mem.Int:
		if v.Bits == 0 {
			return mem.Ptr{T: voidPtrType, Base: mem.NullBase}, nil
		}
	}
	return mem.Ptr{}, in.ubError(siteLibArg, pos, "Library function expected a pointer argument")
}

// errSilentOOB marks an out-of-bounds library access that the profile does
// not watch: the operation silently corrupts (or reads) neighboring memory
// on a real machine; we make it a no-op.
var errSilentOOB = fmt.Errorf("unwatched out-of-bounds library access")

// cString reads the NUL-terminated string at p, checking validity.
func (in *Interp) cString(p mem.Ptr, pos token.Pos) (string, error) {
	o, _, err := in.valid(&useLibString, p, 0, pos)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for off := p.Off; ; off++ {
		if off >= o.Size {
			if site := byStorage(o, siteLibNoNulHeap, siteLibNoNulStack); in.armed(site) {
				return "", in.ubError(site, pos,
					"String is not null-terminated within object %s", o.Name)
			}
			return b.String(), nil // fallback: the next frame byte was 0
		}
		by := o.Data[off]
		c, concrete := by.Octet()
		switch {
		case concrete:
			if c == 0 {
				return b.String(), nil
			}
			b.WriteByte(c)
		case by.IsUnknown():
			if in.armed(siteLibUninit) {
				return "", in.ubError(siteLibUninit, pos,
					"Reading uninitialized bytes as a string")
			}
			return b.String(), nil // fallback: garbage that happened to be 0
		default:
			if in.armed(siteLibPtrBytes) {
				return "", in.ubError(siteLibPtrBytes, pos,
					"Reading pointer bytes as characters of a string")
			}
			b.WriteByte(0x2a) // concrete garbage
		}
	}
}

// ---------- stdio ----------

func biPrintf(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	return in.doPrintf(args, 0, e.P)
}

func biFprintf(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	// The stream argument is accepted and ignored; everything goes to Out.
	if len(args) < 1 {
		return nil, in.ubError(siteLibArg, e.P, "fprintf with no stream")
	}
	return in.doPrintf(args, 1, e.P)
}

func biSprintf(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	dst, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	s, err := in.formatPrintf(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	o, _, err := in.valid(&useLibWrite, dst, int64(len(s)+1), e.P)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(s); i++ {
		o.Data[dst.Off+int64(i)] = mem.Concrete(s[i])
	}
	o.Data[dst.Off+int64(len(s))] = mem.Concrete(0)
	return mem.Int{T: ctypes.TInt, Bits: uint64(len(s))}, nil
}

func biSnprintf(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	dst, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	nArg, err := in.argInt(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	limit := int64(nArg.Bits)
	s, err := in.formatPrintf(args, 2, e.P)
	if err != nil {
		return nil, err
	}
	out := s
	if int64(len(out)) >= limit && limit > 0 {
		out = out[:limit-1]
	}
	if limit > 0 {
		o, _, err := in.valid(&useLibWrite, dst, int64(len(out)+1), e.P)
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(out); i++ {
			o.Data[dst.Off+int64(i)] = mem.Concrete(out[i])
		}
		o.Data[dst.Off+int64(len(out))] = mem.Concrete(0)
	}
	return mem.Int{T: ctypes.TInt, Bits: uint64(len(s))}, nil
}

func (in *Interp) doPrintf(args []mem.Value, fmtIdx int, pos token.Pos) (mem.Value, error) {
	s, err := in.formatPrintf(args, fmtIdx, pos)
	if err != nil {
		return nil, err
	}
	fmt.Fprint(in.out, s)
	return mem.Int{T: ctypes.TInt, Bits: uint64(len(s))}, nil
}

// formatPrintf implements the printf conversions our suites use, with the
// §7.21.6.1:9 mismatch checks (ub.BadFormat).
func (in *Interp) formatPrintf(args []mem.Value, fmtIdx int, pos token.Pos) (string, error) {
	fp, err := in.argPtr(args, fmtIdx, pos)
	if err != nil {
		return "", err
	}
	format, err := in.cString(fp, pos)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	argi := fmtIdx + 1
	nextArg := func() (mem.Value, error) {
		if argi >= len(args) {
			return nil, in.ubError(sitePrintfArgs, pos,
				"printf format requires more arguments than were passed")
		}
		v, err := in.usable(args[argi], pos)
		argi++
		return v, err
	}
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			out.WriteByte(c)
			i++
			continue
		}
		i++
		if i >= len(format) {
			return "", in.ubError(sitePrintfFormat, pos, "printf format string ends with %%")
		}
		// Flags, width, precision.
		spec := "%"
		for i < len(format) && strings.IndexByte("-+ #0", format[i]) >= 0 {
			spec += string(format[i])
			i++
		}
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			spec += string(format[i])
			i++
		}
		if i < len(format) && format[i] == '.' {
			spec += "."
			i++
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				spec += string(format[i])
				i++
			}
		}
		// Length modifier.
		length := ""
		for i < len(format) && strings.IndexByte("hljzt", format[i]) >= 0 {
			length += string(format[i])
			i++
		}
		if i >= len(format) {
			return "", in.ubError(sitePrintfFormat, pos, "printf format string ends inside a conversion")
		}
		conv := format[i]
		i++
		switch conv {
		case '%':
			out.WriteByte('%')
		case 'd', 'i':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			iv, ok := v.(mem.Int)
			if !ok {
				return "", in.ubError(sitePrintfFormat, pos, "printf %%d with a non-integer argument")
			}
			out.WriteString(fmt.Sprintf(spec+"d", int64(iv.Bits)))
		case 'u':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			iv, ok := v.(mem.Int)
			if !ok {
				return "", in.ubError(sitePrintfFormat, pos, "printf %%u with a non-integer argument")
			}
			bits := iv.Bits
			if length == "" {
				bits = in.model.Wrap(ctypes.TUInt, bits)
			}
			out.WriteString(fmt.Sprintf(spec+"d", bits))
		case 'x', 'X', 'o':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			iv, ok := v.(mem.Int)
			if !ok {
				return "", in.ubError(sitePrintfFormat, pos, "printf %%%c with a non-integer argument", conv)
			}
			bits := iv.Bits
			if length == "" {
				bits = in.model.Wrap(ctypes.TUInt, bits)
			}
			out.WriteString(fmt.Sprintf(spec+string(conv), bits))
		case 'c':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			iv, ok := v.(mem.Int)
			if !ok {
				return "", in.ubError(sitePrintfFormat, pos, "printf %%c with a non-integer argument")
			}
			out.WriteByte(byte(iv.Bits))
		case 's':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			p, ok := v.(mem.Ptr)
			if !ok {
				return "", in.ubError(sitePrintfFormat, pos, "printf %%s with a non-pointer argument")
			}
			s, err := in.cString(p, pos)
			if err != nil {
				return "", err
			}
			out.WriteString(fmt.Sprintf(spec+"s", s))
		case 'p':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			p, ok := v.(mem.Ptr)
			if !ok {
				return "", in.ubError(sitePrintfFormat, pos, "printf %%p with a non-pointer argument")
			}
			if p.IsNull() {
				out.WriteString("(nil)")
			} else {
				out.WriteString(fmt.Sprintf("0x%x", p.SynthAddr()))
			}
		case 'f', 'e', 'g', 'E', 'G':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fv, ok := v.(mem.Float)
			if !ok {
				// Integer arguments to %f are a mismatch (§7.21.6.1:9).
				return "", in.ubError(sitePrintfFormat, pos, "printf %%%c with a non-floating argument", conv)
			}
			out.WriteString(fmt.Sprintf(spec+string(conv), fv.F))
		case 'n':
			return "", in.ubError(sitePrintfN, pos, "printf %%n is not supported")
		default:
			return "", in.ubError(sitePrintfFormat, pos, "printf: unknown conversion %%%c", conv)
		}
	}
	return out.String(), nil
}

func biPuts(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	p, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	s, err := in.cString(p, e.P)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(in.out, s)
	return mem.Int{T: ctypes.TInt, Bits: uint64(len(s) + 1)}, nil
}

func biPutchar(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	v, err := in.argInt(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(in.out, "%c", byte(v.Bits))
	return v, nil
}

func biGetchar(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	// No stdin in the sandbox: always EOF.
	return mem.MakeInt(in.model, ctypes.TInt, uint64(^uint64(0))), nil
}

// ---------- stdlib ----------

func biMalloc(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	n, err := in.argInt(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	size := int64(n.Bits)
	if size < 0 {
		return nil, in.ubError(siteLibArg, e.P, "malloc with negative size %d", size)
	}
	o, aerr := in.store.Alloc(mem.ObjHeap, size, "malloc'd object", nil)
	if aerr != nil {
		// Out of memory: malloc returns NULL.
		return mem.Ptr{T: e.T, Base: mem.NullBase}, nil
	}
	return mem.Ptr{T: in.voidPtr(e), Base: o.ID, Off: 0}, nil
}

func (in *Interp) voidPtr(e *cast.Call) *ctypes.Type {
	if e.T != nil && e.T.Kind == ctypes.Ptr {
		return e.T
	}
	return voidPtrType
}

func biCalloc(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	n, err := in.argInt(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	sz, err := in.argInt(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	total := int64(n.Bits) * int64(sz.Bits)
	if total < 0 {
		return nil, in.ubError(siteLibArg, e.P, "calloc with negative size")
	}
	o, aerr := in.store.Alloc(mem.ObjHeap, total, "calloc'd object", nil)
	if aerr != nil {
		return mem.Ptr{T: in.voidPtr(e), Base: mem.NullBase}, nil
	}
	o.Zero(0, total)
	return mem.Ptr{T: in.voidPtr(e), Base: o.ID, Off: 0}, nil
}

func biRealloc(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	p, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	n, err := in.argInt(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	size := int64(n.Bits)
	if p.IsNull() {
		return biMalloc(in, args[1:], e)
	}
	o, ok := in.store.Obj(p.Base)
	if !ok || o.Kind != mem.ObjHeap || p.Off != 0 {
		return nil, in.ubError(siteRealloc, e.P,
			"realloc() of a pointer not obtained from an allocation function")
	}
	if !o.Live {
		return nil, in.ubError(siteRealloc, e.P, "realloc() of an already freed pointer")
	}
	no, aerr := in.store.Alloc(mem.ObjHeap, size, "realloc'd object", nil)
	if aerr != nil {
		return mem.Ptr{T: in.voidPtr(e), Base: mem.NullBase}, nil
	}
	copyN := o.Size
	if size < copyN {
		copyN = size
	}
	copy(no.Data[:copyN], o.Data[:copyN])
	in.store.Kill(o.ID)
	return mem.Ptr{T: in.voidPtr(e), Base: no.ID, Off: 0}, nil
}

func biFree(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	p, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	if p.IsNull() {
		return mem.Void{}, nil // free(NULL) is a no-op (§7.22.3.3:2)
	}
	if !in.armed(siteFree) {
		// Unchecked frees silently corrupt the allocator on a real
		// machine; here they are no-ops unless actually valid.
		if o, ok := in.store.Obj(p.Base); ok && o.Kind == mem.ObjHeap && o.Live && p.Off == 0 {
			in.store.Kill(o.ID)
		}
		return mem.Void{}, nil
	}
	if p.Base == mem.InvalidBase {
		return nil, in.ubError(siteFree, e.P, "free() of a forged pointer")
	}
	o, ok := in.store.Obj(p.Base)
	if !ok {
		return nil, in.ubError(siteFree, e.P, "free() of an invalid pointer")
	}
	if o.Kind != mem.ObjHeap {
		return nil, in.ubError(siteFree, e.P,
			"free() of a pointer to %s storage (not from an allocation function)", o.Kind)
	}
	if !o.Live {
		return nil, in.ubError(siteFree, e.P, "free() of an already freed pointer (double free)")
	}
	if p.Off != 0 {
		return nil, in.ubError(siteFreeOffset, e.P,
			"free() of a pointer into the middle of an allocated object (offset %d)", p.Off)
	}
	in.store.Kill(o.ID)
	return mem.Void{}, nil
}

func biExit(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	code := 0
	if len(args) > 0 {
		if v, err := in.argInt(args, 0, e.P); err == nil {
			code = int(int32(v.Bits))
		}
	}
	return nil, &ExitError{Code: code}
}

func biAbort(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	return nil, &ExitError{Code: 134, Aborted: true}
}

func biAssertFail(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	msg := "assertion failed"
	if len(args) > 0 {
		if p, err := in.argPtr(args, 0, e.P); err == nil {
			if s, err := in.cString(p, e.P); err == nil {
				msg = s
			}
		}
	}
	fmt.Fprintf(in.out, "Assertion failed: %s\n", msg)
	return nil, &ExitError{Code: 134, Aborted: true}
}

func biAtoi(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	p, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	s, err := in.cString(p, e.P)
	if err != nil {
		return nil, err
	}
	s = strings.TrimLeft(s, " \t\n")
	endIdx := 0
	if endIdx < len(s) && (s[endIdx] == '-' || s[endIdx] == '+') {
		endIdx++
	}
	for endIdx < len(s) && s[endIdx] >= '0' && s[endIdx] <= '9' {
		endIdx++
	}
	v, _ := strconv.ParseInt(s[:endIdx], 10, 64)
	return mem.MakeInt(in.model, e.T, uint64(v)), nil
}

func biAbs(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	v, err := in.argInt(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	sv := int64(v.Bits)
	t := e.T
	if sv == in.model.IntMin(t) {
		// §7.22.6.1: the absolute value of the most negative number is
		// not representable.
		return nil, in.ubError(siteAbs, e.P,
			"abs() of the most negative value of %s", t)
	}
	if sv < 0 {
		sv = -sv
	}
	return mem.MakeInt(in.model, t, uint64(sv)), nil
}

func biRand(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	// xorshift64*, deterministic for reproducibility.
	x := in.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	in.rngState = x
	v := (x * 0x2545F4914F6CDD1D) >> 33 & 0x7FFFFFFF
	return mem.Int{T: ctypes.TInt, Bits: v}, nil
}

func biSrand(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	v, err := in.argInt(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	in.rngState = v.Bits | 1
	return mem.Void{}, nil
}

// ---------- string.h ----------

func overlap(a mem.Ptr, b mem.Ptr, n int64) bool {
	if a.Base != b.Base {
		return false
	}
	return a.Off < b.Off+n && b.Off < a.Off+n
}

func biMemcpy(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	dst, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	src, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	n, err := in.argInt(args, 2, e.P)
	if err != nil {
		return nil, err
	}
	cnt := int64(n.Bits)
	if overlap(dst, src, cnt) && cnt > 0 {
		return nil, in.ubError(siteMemcpyOverlap, e.P, "memcpy between overlapping objects")
	}
	return in.copyBytes(dst, src, cnt, e.P)
}

func biMemmove(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	dst, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	src, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	n, err := in.argInt(args, 2, e.P)
	if err != nil {
		return nil, err
	}
	return in.copyBytes(dst, src, int64(n.Bits), e.P)
}

// copyBytes copies raw bytes — including pointer fragments and unknown
// bytes, which is exactly what §6.2.6.1:4 requires memcpy to do (§4.3.3).
func (in *Interp) copyBytes(dst, src mem.Ptr, n int64, pos token.Pos) (mem.Value, error) {
	if n == 0 {
		return dst, nil
	}
	so, _, err := in.valid(&useLibRead, src, n, pos)
	if err != nil {
		return nil, err
	}
	do, _, err := in.valid(&useLibWrite, dst, n, pos)
	if err != nil {
		return nil, err
	}
	// copy is memmove: overlapping ranges need no temporary.
	copy(do.Data[dst.Off:dst.Off+n], so.Data[src.Off:src.Off+n])
	return dst, nil
}

func biMemset(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	dst, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	cv, err := in.argInt(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	n, err := in.argInt(args, 2, e.P)
	if err != nil {
		return nil, err
	}
	cnt := int64(n.Bits)
	o, _, err := in.valid(&useLibWrite, dst, cnt, e.P)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < cnt; i++ {
		o.Data[dst.Off+i] = mem.Concrete(byte(cv.Bits))
	}
	return dst, nil
}

func biMemcmp(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	a, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	b, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	n, err := in.argInt(args, 2, e.P)
	if err != nil {
		return nil, err
	}
	cnt := int64(n.Bits)
	ao, _, err := in.valid(&useLibRead, a, cnt, e.P)
	if err != nil {
		return nil, err
	}
	bo, _, err := in.valid(&useLibRead, b, cnt, e.P)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < cnt; i++ {
		ab, aok := ao.Data[a.Off+i].Octet()
		bb, bok := bo.Data[b.Off+i].Octet()
		if !aok || !bok {
			if in.armed(siteLibUninit) {
				return nil, in.ubError(siteLibUninit, e.P,
					"memcmp on bytes without a determinate value")
			}
			ab, bb = 0, 0
		}
		if ab != bb {
			r := int64(1)
			if ab < bb {
				r = -1
			}
			return mem.MakeInt(in.model, ctypes.TInt, uint64(r)), nil
		}
	}
	return mem.Int{T: ctypes.TInt, Bits: 0}, nil
}

func biMemchr(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	p, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	cv, err := in.argInt(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	n, err := in.argInt(args, 2, e.P)
	if err != nil {
		return nil, err
	}
	cnt := int64(n.Bits)
	o, _, err := in.valid(&useLibRead, p, cnt, e.P)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < cnt; i++ {
		if b, ok := o.Data[p.Off+i].Octet(); ok && b == byte(cv.Bits) {
			return mem.Ptr{T: in.voidPtr(e), Base: p.Base, Off: p.Off + i}, nil
		}
	}
	return mem.Ptr{T: in.voidPtr(e), Base: mem.NullBase}, nil
}

func biStrlen(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	p, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	s, err := in.cString(p, e.P)
	if err != nil {
		return nil, err
	}
	return mem.MakeInt(in.model, ctypes.TULong, uint64(len(s))), nil
}

func biStrcpy(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	dst, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	src, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	s, err := in.cString(src, e.P)
	if err != nil {
		return nil, err
	}
	n := int64(len(s) + 1)
	if overlap(dst, src, n) {
		return nil, in.ubError(siteStrcpyOverlap, e.P, "strcpy between overlapping objects")
	}
	o, _, err := in.valid(&useLibWrite, dst, n, e.P)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(s); i++ {
		o.Data[dst.Off+int64(i)] = mem.Concrete(s[i])
	}
	o.Data[dst.Off+int64(len(s))] = mem.Concrete(0)
	return dst, nil
}

func biStrncpy(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	dst, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	src, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	nv, err := in.argInt(args, 2, e.P)
	if err != nil {
		return nil, err
	}
	n := int64(nv.Bits)
	if overlap(dst, src, n) && n > 0 {
		return nil, in.ubError(siteStrncpyOverlap, e.P, "strncpy between overlapping objects")
	}
	o, _, err := in.valid(&useLibWrite, dst, n, e.P)
	if err != nil {
		return nil, err
	}
	so, _, err := in.valid(&useLibRead, src, 0, e.P)
	if err != nil {
		return nil, err
	}
	var i int64
	for i = 0; i < n; i++ {
		if src.Off+i >= so.Size {
			return nil, in.ubError(siteStrncpyPast, e.P, "strncpy reads past the source object")
		}
		b, ok := so.Data[src.Off+i].Octet()
		if !ok {
			if in.armed(siteLibUninit) {
				return nil, in.ubError(siteLibUninit, e.P, "strncpy on indeterminate bytes")
			}
			b = 0
		}
		o.Data[dst.Off+i] = mem.Concrete(b)
		if b == 0 {
			break
		}
	}
	for ; i < n; i++ {
		o.Data[dst.Off+i] = mem.Concrete(0)
	}
	return dst, nil
}

func biStrcat(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	dst, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	src, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	d, err := in.cString(dst, e.P)
	if err != nil {
		return nil, err
	}
	s, err := in.cString(src, e.P)
	if err != nil {
		return nil, err
	}
	need := int64(len(d) + len(s) + 1)
	o, _, err := in.valid(&useLibWrite, dst, need, e.P)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(s); i++ {
		o.Data[dst.Off+int64(len(d)+i)] = mem.Concrete(s[i])
	}
	o.Data[dst.Off+int64(len(d)+len(s))] = mem.Concrete(0)
	return dst, nil
}

func biStrncat(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	dst, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	src, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	nv, err := in.argInt(args, 2, e.P)
	if err != nil {
		return nil, err
	}
	d, err := in.cString(dst, e.P)
	if err != nil {
		return nil, err
	}
	s, err := in.cString(src, e.P)
	if err != nil {
		return nil, err
	}
	if int64(len(s)) > int64(nv.Bits) {
		s = s[:nv.Bits]
	}
	need := int64(len(d) + len(s) + 1)
	o, _, err := in.valid(&useLibWrite, dst, need, e.P)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(s); i++ {
		o.Data[dst.Off+int64(len(d)+i)] = mem.Concrete(s[i])
	}
	o.Data[dst.Off+int64(len(d)+len(s))] = mem.Concrete(0)
	return dst, nil
}

func biStrcmp(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	a, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	b, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	as, err := in.cString(a, e.P)
	if err != nil {
		return nil, err
	}
	bs, err := in.cString(b, e.P)
	if err != nil {
		return nil, err
	}
	return mem.MakeInt(in.model, ctypes.TInt, uint64(int64(strings.Compare(as, bs)))), nil
}

func biStrncmp(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	a, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	b, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	nv, err := in.argInt(args, 2, e.P)
	if err != nil {
		return nil, err
	}
	as, err := in.cString(a, e.P)
	if err != nil {
		return nil, err
	}
	bs, err := in.cString(b, e.P)
	if err != nil {
		return nil, err
	}
	n := int(nv.Bits)
	if len(as) > n {
		as = as[:n]
	}
	if len(bs) > n {
		bs = bs[:n]
	}
	return mem.MakeInt(in.model, ctypes.TInt, uint64(int64(strings.Compare(as, bs)))), nil
}

// biStrchr implements strchr — the paper's §4.2.2 const-laundering example:
// the returned pointer loses the const qualifier, but the notWritable set
// still protects the bytes.
func biStrchr(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	p, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	cv, err := in.argInt(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	s, err := in.cString(p, e.P)
	if err != nil {
		return nil, err
	}
	target := byte(cv.Bits)
	for i := 0; i <= len(s); i++ {
		var c byte
		if i < len(s) {
			c = s[i]
		}
		if c == target {
			return mem.Ptr{T: charPtrType, Base: p.Base, Off: p.Off + int64(i)}, nil
		}
	}
	return mem.Ptr{T: charPtrType, Base: mem.NullBase}, nil
}

func biStrrchr(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	p, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	cv, err := in.argInt(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	s, err := in.cString(p, e.P)
	if err != nil {
		return nil, err
	}
	target := byte(cv.Bits)
	for i := len(s); i >= 0; i-- {
		var c byte
		if i < len(s) {
			c = s[i]
		}
		if c == target {
			return mem.Ptr{T: charPtrType, Base: p.Base, Off: p.Off + int64(i)}, nil
		}
	}
	return mem.Ptr{T: charPtrType, Base: mem.NullBase}, nil
}

func biStrstr(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	hp, err := in.argPtr(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	np, err := in.argPtr(args, 1, e.P)
	if err != nil {
		return nil, err
	}
	h, err := in.cString(hp, e.P)
	if err != nil {
		return nil, err
	}
	n, err := in.cString(np, e.P)
	if err != nil {
		return nil, err
	}
	idx := strings.Index(h, n)
	if idx < 0 {
		return mem.Ptr{T: charPtrType, Base: mem.NullBase}, nil
	}
	return mem.Ptr{T: charPtrType, Base: hp.Base, Off: hp.Off + int64(idx)}, nil
}

// ---------- ctype.h ----------

func biCtype(pred func(int) bool) builtin {
	return func(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
		v, err := in.argInt(args, 0, e.P)
		if err != nil {
			return nil, err
		}
		c := int(int64(v.Bits))
		if c < -1 || c > 255 {
			// §7.4:1: argument must be representable as unsigned char or EOF.
			return nil, in.ubError(siteCtype, e.P,
				"ctype function with out-of-range argument %d", c)
		}
		return truth(pred(c)), nil
	}
}

func biToupper(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	v, err := in.argInt(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	c := int64(v.Bits)
	if c >= 'a' && c <= 'z' {
		c -= 32
	}
	return mem.MakeInt(in.model, ctypes.TInt, uint64(c)), nil
}

func biTolower(in *Interp, args []mem.Value, e *cast.Call) (mem.Value, error) {
	v, err := in.argInt(args, 0, e.P)
	if err != nil {
		return nil, err
	}
	c := int64(v.Bits)
	if c >= 'A' && c <= 'Z' {
		c += 32
	}
	return mem.MakeInt(in.model, ctypes.TInt, uint64(c)), nil
}
