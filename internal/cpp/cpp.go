package cpp

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Error is a preprocessing error with a source position.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

// Resolver locates the contents of an #include.
type Resolver interface {
	// Resolve returns the contents and canonical name of the included file.
	// system reports whether the include used <...> rather than "...".
	// fromDir is the directory of the including file (for "..." includes).
	Resolve(name string, system bool, fromDir string) (content, path string, err error)
}

// MapResolver serves includes from an in-memory map of name → contents.
// Both <name> and "name" forms resolve through the map.
type MapResolver map[string]string

// Resolve implements Resolver.
func (m MapResolver) Resolve(name string, system bool, fromDir string) (string, string, error) {
	if c, ok := m[name]; ok {
		return c, name, nil
	}
	return "", "", fmt.Errorf("include file %q not found", name)
}

// ChainResolver tries each resolver in turn.
type ChainResolver []Resolver

// Resolve implements Resolver.
func (c ChainResolver) Resolve(name string, system bool, fromDir string) (string, string, error) {
	return first(c, name, func(r Resolver) (string, string, error) { return r.Resolve(name, system, fromDir) })
}

// first returns the first answer of c's resolvers that is not an error,
// or else the first error.
func first[T any](c ChainResolver, name string, resolve func(Resolver) (T, string, error)) (T, string, error) {
	var firstErr error
	for _, r := range c {
		v, path, err := resolve(r)
		if err == nil {
			return v, path, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("include file %q not found", name)
	}
	var zero T
	return zero, "", firstErr
}

// FSResolver serves "..." includes from the filesystem relative to the
// including file's directory.
type FSResolver struct{}

// Resolve implements Resolver.
func (FSResolver) Resolve(name string, system bool, fromDir string) (string, string, error) {
	if system {
		return "", "", fmt.Errorf("system include %q not found", name)
	}
	p := name
	if !filepath.IsAbs(p) {
		p = filepath.Join(fromDir, name)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return "", "", err
	}
	return string(b), p, nil
}

// HeaderSet is an immutable set of in-memory headers, each scanned once
// when the set is built. Including one of them splices its scanned tokens
// into the unit instead of scanning its text again; the tokens are only
// read, so preprocessors on any number of goroutines share them.
type HeaderSet struct {
	text map[string]string
	toks map[string][]ppTok
}

// NewHeaderSet scans headers (name → contents) into a HeaderSet. A
// header's tokens depend only on its text and name, never on macros.
func NewHeaderSet(headers map[string]string) *HeaderSet {
	h := &HeaderSet{text: make(map[string]string, len(headers)), toks: make(map[string][]ppTok, len(headers))}
	for name, content := range headers {
		h.text[name] = content
		h.toks[name] = scan(content, name)
	}
	return h
}

// Resolve implements Resolver. Like MapResolver, it serves both the
// <name> and "name" forms.
func (h *HeaderSet) Resolve(name string, system bool, fromDir string) (string, string, error) {
	return MapResolver(h.text).Resolve(name, system, fromDir)
}

// resolveTokens resolves an include to its tokens and canonical name: a
// HeaderSet answers with its shared tokens, and the content any other
// resolver returns is scanned.
func resolveTokens(r Resolver, name string, system bool, fromDir string) ([]ppTok, string, error) {
	switch r := r.(type) {
	case *HeaderSet:
		if toks, ok := r.toks[name]; ok {
			return toks, name, nil
		}
	case ChainResolver:
		return first(r, name, func(sub Resolver) ([]ppTok, string, error) {
			return resolveTokens(sub, name, system, fromDir)
		})
	}
	content, path, err := r.Resolve(name, system, fromDir)
	if err != nil {
		return nil, "", err
	}
	return scan(content, path), path, nil
}

// Macro is a preprocessor macro definition. Macros are never changed once
// defined, so preprocessors share the predefined ones.
type Macro struct {
	Name     string
	FuncLike bool
	Params   []string
	Variadic bool
	Body     []ppTok
}

type condState struct {
	active     bool // this branch is being emitted
	everActive bool // some branch of this #if chain was taken
	parentLive bool // enclosing context is active
	sawElse    bool
	line       int
	file       string
}

// frame is one token list on the worklist: a file, an included header or
// a macro replacement, with toks[i] its next token. Frames only read their
// tokens; a built-in header's frame reads the HeaderSet's shared slice.
type frame struct {
	toks []ppTok
	i    int
}

// Preprocessor expands one translation unit.
type Preprocessor struct {
	resolver Resolver
	// macros holds the unit's definitions, and a nil entry for each name
	// it #undefs; both shadow the shared predefined table.
	macros map[string]*Macro
	conds  []condState
	// stack is the token worklist: the next token is the top frame's next
	// token. Pushing an include or a macro replacement costs as much as
	// the tokens pushed, never the rest of the unit. Frames below base
	// belong to the unit around an expandList and read as exhausted.
	stack   []frame
	base    int
	out     strings.Builder
	outFile string
	outLine int
	depth   int   // include nesting depth
	counter int   // __COUNTER__
	dynamic ppTok // expand's __LINE__, __FILE__ or __COUNTER__ token
}

const maxIncludeDepth = 40

// includeEnd is pushed under every included file: taking it pops the
// include depth.
var includeEnd = []ppTok{{kind: ppIncludeEnd}}

// New returns a preprocessor resolving includes through r (FSResolver and
// the built-in libc headers are sensible defaults; see Preprocess).
func New(r Resolver) *Preprocessor {
	return &Preprocessor{resolver: r, macros: make(map[string]*Macro)}
}

// Preprocess runs src (named file) through a fresh preprocessor with the
// given resolver and returns the expanded text with line markers.
func Preprocess(src, file string, r Resolver) (string, error) {
	pp := New(r)
	return pp.Run(src, file)
}

// predefined is the macro table every preprocessor starts from, built
// once and shared read-only: a unit's own definitions and #undefs shadow
// it (see macro). The data-model macros hold the LP64 values; the driver
// redefines them for other models. Their names are GCC's, and the
// unsigned maxima that GCC computes in its limits.h follow the same
// pattern.
var predefined = func() map[string]*Macro {
	pp := &Preprocessor{macros: make(map[string]*Macro)}
	for _, d := range []string{
		"__STDC__=1",
		"__STDC_VERSION__=201112L",
		"__STDC_HOSTED__=1",
		"__KCC__=1",
		"__x86_64__=1",
		// Deterministic date/time: reproducibility beats realism here.
		`__DATE__="Jan  1 2015"`,
		`__TIME__="00:00:00"`,
		// __FILE__, __LINE__, __COUNTER__, __func__ handled specially.

		"__SHRT_MAX__=32767",
		"__USHRT_MAX__=65535",
		"__INT_MAX__=2147483647",
		"__UINT_MAX__=4294967295u",
		"__LONG_MAX__=9223372036854775807L",
		"__ULONG_MAX__=18446744073709551615uL",
		"__LONG_LONG_MAX__=9223372036854775807LL",
		"__ULONG_LONG_MAX__=18446744073709551615uLL",
		"__INT8_TYPE__=signed char",
		"__UINT8_TYPE__=unsigned char",
		"__INT8_MAX__=127",
		"__UINT8_MAX__=255",
		"__INT16_TYPE__=short",
		"__UINT16_TYPE__=unsigned short",
		"__INT16_MAX__=32767",
		"__UINT16_MAX__=65535",
		"__INT32_TYPE__=int",
		"__UINT32_TYPE__=unsigned int",
		"__INT32_MAX__=2147483647",
		"__UINT32_MAX__=4294967295u",
		"__INT64_TYPE__=long",
		"__UINT64_TYPE__=unsigned long",
		"__INT64_MAX__=9223372036854775807L",
		"__UINT64_MAX__=18446744073709551615uL",
		"__INTPTR_TYPE__=long",
		"__UINTPTR_TYPE__=unsigned long",
		// __KCC_IF_INTn__(decl) is decl when the model has an n-bit
		// integer type and empty when it has none (C11 §7.20.1.1:3).
		"__KCC_IF_INT8__(decl)=decl",
		"__KCC_IF_INT16__(decl)=decl",
		"__KCC_IF_INT32__(decl)=decl",
		"__KCC_IF_INT64__(decl)=decl",
	} {
		if err := pp.Define(d); err != nil {
			panic(err)
		}
	}
	return pp.macros
}()

// Define adds a command-line style definition, as #define would: "NAME"
// defines NAME as 1, "NAME=VALUE" as VALUE, and "F(a,b)=BODY" a
// function-like macro.
func (pp *Preprocessor) Define(d string) error {
	name, val, ok := strings.Cut(d, "=")
	if !ok {
		val = "1"
	}
	const file = "<command line>"
	return pp.define(ppTok{file: file, line: 1}, scanLine(name+" "+val, file))
}

// Undef removes a definition, as #undef would.
func (pp *Preprocessor) Undef(name string) { pp.macros[name] = nil }

// macro returns the definition of name, or nil. The unit's definitions,
// and the nil entries its #undefs leave, shadow the predefined table.
func (pp *Preprocessor) macro(name string) *Macro {
	if m, ok := pp.macros[name]; ok {
		return m
	}
	return predefined[name]
}

func (pp *Preprocessor) errorf(t ppTok, format string, args ...any) error {
	return &Error{File: t.file, Line: t.line, Msg: fmt.Sprintf(format, args...)}
}

// Run preprocesses src and returns the expanded translation unit.
func (pp *Preprocessor) Run(src, file string) (string, error) {
	if pp.stack == nil {
		pp.stack = make([]frame, 0, 16)
	}
	pp.stack = append(pp.stack[:0], frame{toks: scan(src, file)})
	pp.base = 0
	pp.outFile = ""
	pp.outLine = 0
	// Most units include a header or two: leave room for their text.
	pp.out.Grow(len(src) + 1024)
	for {
		t := pp.next()
		switch {
		case t.kind == ppEOF:
			if len(pp.conds) > 0 {
				c := pp.conds[len(pp.conds)-1]
				return "", &Error{File: c.file, Line: c.line, Msg: "unterminated #if"}
			}
			pp.out.WriteByte('\n')
			// Copy out the text: compiled programs keep substrings of it,
			// and they should not keep the builder's spare capacity.
			return strings.Clone(pp.out.String()), nil
		case t.kind == ppIncludeEnd:
			pp.depth--
		case t.isPunct("\n"):
		case t.isPunct("#") && t.bol:
			if err := pp.directive(t); err != nil {
				return "", err
			}
		case !pp.active():
			pp.takeLine()
		default:
			e, err := pp.expand(t)
			if err != nil {
				return "", err
			}
			if e != nil {
				pp.emit(e)
			}
		}
	}
}

// scan tokenizes one file, without its EOF.
func scan(src, file string) []ppTok {
	sc := newPPScanner(src, file)
	toks := make([]ppTok, 0, len(src)/ppBytesPerToken+1)
	for {
		t := sc.next()
		if t.kind == ppEOF {
			return toks
		}
		toks = append(toks, t)
	}
}

// ppBytesPerToken sizes scan's slice: the suite units average 2.3 source
// bytes per preprocessing token, newlines included.
const ppBytesPerToken = 2

// scanLine tokenizes src up to its first newline.
func scanLine(src, file string) []ppTok {
	sc := newPPScanner(src, file)
	var toks []ppTok
	for {
		t := sc.next()
		if t.kind == ppEOF || t.isPunct("\n") {
			return toks
		}
		toks = append(toks, t)
	}
}

// push puts toks on top of the worklist, to be read before anything
// already there.
func (pp *Preprocessor) push(toks []ppTok) {
	if len(toks) > 0 {
		pp.stack = append(pp.stack, frame{toks: toks})
	}
}

// eof is what an exhausted worklist reads as.
var eof = ppTok{kind: ppEOF}

// peek returns the next token without taking it, dropping exhausted
// frames. Tokens are read in place and must not be written.
func (pp *Preprocessor) peek() *ppTok {
	for n := len(pp.stack); n > pp.base; n-- {
		if f := &pp.stack[n-1]; f.i < len(f.toks) {
			return &f.toks[f.i]
		}
		pp.stack = pp.stack[:n-1]
	}
	return &eof
}

// next takes the next token.
func (pp *Preprocessor) next() *ppTok {
	t := pp.peek()
	if n := len(pp.stack); n > pp.base {
		pp.stack[n-1].i++
	}
	return t
}

func (pp *Preprocessor) active() bool {
	for _, c := range pp.conds {
		if !c.active || !c.parentLive {
			return false
		}
	}
	return true
}

// takeLine removes and returns the tokens up to (not including) the next
// newline; the newline itself is consumed. A directive line never leaves
// the file it starts in, so the line is a slice of that file's tokens,
// which are never written.
func (pp *Preprocessor) takeLine() []ppTok {
	if t := pp.peek(); t.kind == ppIncludeEnd || t.kind == ppEOF {
		// Leave the include marker for Run to account for.
		return nil
	}
	f := &pp.stack[len(pp.stack)-1]
	start := f.i
	for f.i < len(f.toks) {
		f.i++
		if f.toks[f.i-1].isPunct("\n") {
			return f.toks[start : f.i-1]
		}
	}
	return f.toks[start:]
}

// directive handles one preprocessing directive; hash, its '#', is taken.
func (pp *Preprocessor) directive(hash *ppTok) error {
	line := pp.takeLine()
	if len(line) == 0 {
		return nil // null directive
	}
	name := line[0]
	args := line[1:]
	if name.kind != ppIdent && name.kind != ppNumber {
		if !pp.active() {
			return nil
		}
		return pp.errorf(*hash, "invalid preprocessing directive")
	}
	switch name.text {
	case "ifdef", "ifndef":
		live := pp.active()
		taken := false
		if len(args) != 1 || args[0].kind != ppIdent {
			if live {
				return pp.errorf(name, "#%s expects a single identifier", name.text)
			}
		} else {
			defined := pp.macro(args[0].text) != nil
			taken = defined == (name.text == "ifdef")
		}
		pp.conds = append(pp.conds, condState{
			active: taken, everActive: taken, parentLive: live,
			line: name.line, file: name.file,
		})
		return nil
	case "if":
		live := pp.active()
		taken := false
		if live {
			v, err := pp.evalCondition(args, name)
			if err != nil {
				return err
			}
			taken = v != 0
		}
		pp.conds = append(pp.conds, condState{
			active: taken, everActive: taken, parentLive: live,
			line: name.line, file: name.file,
		})
		return nil
	case "elif":
		if len(pp.conds) == 0 {
			return pp.errorf(name, "#elif without #if")
		}
		c := &pp.conds[len(pp.conds)-1]
		if c.sawElse {
			return pp.errorf(name, "#elif after #else")
		}
		if !c.parentLive || c.everActive {
			c.active = false
			return nil
		}
		v, err := pp.evalCondition(args, name)
		if err != nil {
			return err
		}
		c.active = v != 0
		c.everActive = c.active
		return nil
	case "else":
		if len(pp.conds) == 0 {
			return pp.errorf(name, "#else without #if")
		}
		c := &pp.conds[len(pp.conds)-1]
		if c.sawElse {
			return pp.errorf(name, "duplicate #else")
		}
		c.sawElse = true
		c.active = c.parentLive && !c.everActive
		c.everActive = true
		return nil
	case "endif":
		if len(pp.conds) == 0 {
			return pp.errorf(name, "#endif without #if")
		}
		pp.conds = pp.conds[:len(pp.conds)-1]
		return nil
	}
	if !pp.active() {
		return nil
	}
	switch name.text {
	case "include":
		return pp.include(name, args)
	case "define":
		return pp.define(name, args)
	case "undef":
		if len(args) != 1 || args[0].kind != ppIdent {
			return pp.errorf(name, "#undef expects a single identifier")
		}
		pp.Undef(args[0].text)
		return nil
	case "error":
		return pp.errorf(name, "#error %s", tokensText(args))
	case "warning":
		fmt.Fprintf(os.Stderr, "%s:%d: warning: %s\n", name.file, name.line, tokensText(args))
		return nil
	case "pragma":
		return nil // all pragmas ignored (including once; headers use guards)
	case "line":
		return nil // we own line numbering
	default:
		return pp.errorf(name, "unknown preprocessing directive #%s", name.text)
	}
}

func tokensText(toks []ppTok) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 && t.ws {
			b.WriteByte(' ')
		}
		b.WriteString(t.text)
	}
	return b.String()
}

func (pp *Preprocessor) include(dir ppTok, args []ppTok) error {
	if pp.depth >= maxIncludeDepth {
		return pp.errorf(dir, "#include nested too deeply")
	}
	var name string
	system := false
	switch {
	case len(args) == 1 && args[0].kind == ppString:
		var err error
		name, err = strconv.Unquote(args[0].text)
		if err != nil {
			name = strings.Trim(args[0].text, `"`)
		}
	case len(args) >= 2 && args[0].isPunct("<"):
		system = true
		var b strings.Builder
		for _, t := range args[1:] {
			if t.isPunct(">") {
				break
			}
			b.WriteString(t.text)
		}
		name = b.String()
	default:
		// The operand may itself be a macro.
		exp, err := pp.expandList(args)
		if err != nil {
			return err
		}
		if len(exp) == 1 && exp[0].kind == ppString {
			name, _ = strconv.Unquote(exp[0].text)
		} else {
			return pp.errorf(dir, "malformed #include")
		}
	}
	toks, _, err := resolveTokens(pp.resolver, name, system, filepath.Dir(dir.file))
	if err != nil {
		return pp.errorf(dir, "%v", err)
	}
	// Read the file's tokens next, then the marker that pops the depth.
	pp.depth++
	pp.push(includeEnd)
	pp.push(toks)
	return nil
}

func (pp *Preprocessor) define(dir ppTok, args []ppTok) error {
	if len(args) == 0 || args[0].kind != ppIdent {
		return pp.errorf(dir, "#define expects an identifier")
	}
	m := &Macro{Name: args[0].text}
	rest := args[1:]
	// Function-like only if '(' immediately follows the name (no space).
	if len(rest) > 0 && rest[0].isPunct("(") && !rest[0].ws {
		m.FuncLike = true
		i := 1
		for i < len(rest) && !rest[i].isPunct(")") {
			t := rest[i]
			switch {
			case t.kind == ppIdent:
				m.Params = append(m.Params, t.text)
			case t.isPunct("..."):
				m.Variadic = true
			case t.isPunct(","):
			default:
				return pp.errorf(dir, "malformed macro parameter list")
			}
			i++
		}
		if i >= len(rest) {
			return pp.errorf(dir, "unterminated macro parameter list")
		}
		rest = rest[i+1:]
	}
	m.Body = rest // a slice of the directive line, never written
	pp.macros[m.Name] = m
	return nil
}

// emit writes one token to the output, inserting newlines or line markers to
// keep output lines in sync with the token's origin.
func (pp *Preprocessor) emit(t *ppTok) {
	if t.file != pp.outFile || t.line < pp.outLine || t.line > pp.outLine+8 {
		if pp.outLine != 0 {
			pp.out.WriteByte('\n')
		}
		var buf [128]byte
		m := append(buf[:0], "# "...)
		m = strconv.AppendInt(m, int64(t.line), 10)
		m = append(m, ' ')
		m = strconv.AppendQuote(m, t.file)
		m = append(m, '\n')
		pp.out.Write(m)
		pp.outFile = t.file
		pp.outLine = t.line
	}
	for pp.outLine < t.line {
		pp.out.WriteByte('\n')
		pp.outLine++
	}
	pp.out.WriteByte(' ')
	pp.out.WriteString(t.text)
}
