package cpp

import (
	"fmt"
	"strconv"
	"strings"
)

// expand handles t, just taken from the worklist. It returns the token to
// emit, or nil when t invoked a macro whose replacement now sits on top of
// the worklist for rescanning. Function-like macro invocations may consume
// further tokens (including across newlines, per the standard). The token
// returned is only valid until the next call.
func (pp *Preprocessor) expand(t *ppTok) (*ppTok, error) {
	if t.kind != ppIdent || t.hideset[t.text] {
		return t, nil
	}
	// Dynamic predefined macros.
	switch t.text {
	case "__LINE__":
		pp.dynamic = ppTok{kind: ppNumber, text: strconv.Itoa(t.line), file: t.file, line: t.line, ws: t.ws}
		return &pp.dynamic, nil
	case "__FILE__":
		pp.dynamic = ppTok{kind: ppString, text: strconv.Quote(t.file), file: t.file, line: t.line, ws: t.ws}
		return &pp.dynamic, nil
	case "__COUNTER__":
		pp.counter++
		pp.dynamic = ppTok{kind: ppNumber, text: strconv.Itoa(pp.counter - 1), file: t.file, line: t.line, ws: t.ws}
		return &pp.dynamic, nil
	}
	m := pp.macro(t.text)
	if m == nil {
		return t, nil
	}
	inv := *t
	if !m.FuncLike {
		pp.push(inheritSpace(substituteObject(m, inv), inv))
		return nil, nil
	}
	// Function-like: only expands if followed by '('.
	if !pp.nextIsLParen() {
		return t, nil
	}
	args, err := pp.gatherArgs(inv, m)
	if err != nil {
		return nil, err
	}
	body, err := pp.substituteFunc(m, inv, args)
	if err != nil {
		return nil, err
	}
	pp.push(inheritSpace(body, inv))
	return nil, nil
}

// inheritSpace gives a replacement's first token the invocation's leading
// whitespace, as GCC does, so that a macro expanding to another macro
// stringizes like one expanding to the final tokens.
func inheritSpace(body []ppTok, inv ppTok) []ppTok {
	if len(body) > 0 {
		body[0].ws = inv.ws
	}
	return body
}

// nextIsLParen reports whether the next significant token is '('.
func (pp *Preprocessor) nextIsLParen() bool {
	for n := len(pp.stack); n > pp.base; n-- {
		f := &pp.stack[n-1]
		for i := f.i; i < len(f.toks); i++ {
			t := &f.toks[i]
			if t.isPunct("\n") || t.kind == ppIncludeEnd {
				continue
			}
			return t.isPunct("(")
		}
	}
	return false
}

// gatherArgs consumes "( a1 , a2 , ... )" from the worklist. Commas inside
// nested parentheses do not separate arguments.
func (pp *Preprocessor) gatherArgs(inv ppTok, m *Macro) ([][]ppTok, error) {
	// Skip to and consume '('.
	for {
		t := pp.next()
		if t.kind == ppIncludeEnd {
			pp.depth--
			continue
		}
		if t.kind == ppEOF || t.isPunct("(") {
			break
		}
	}
	var args [][]ppTok
	var cur []ppTok
	depth := 0
	for {
		t := pp.next()
		switch {
		case t.kind == ppEOF:
			return nil, pp.errorf(inv, "unterminated invocation of macro %s", m.Name)
		case t.kind == ppIncludeEnd:
			pp.depth--
			continue
		case t.isPunct("\n"):
			continue // newlines inside macro args are whitespace
		case t.isPunct("("):
			depth++
			cur = append(cur, *t)
		case t.isPunct(")"):
			if depth == 0 {
				args = append(args, cur)
				// "f()" with no params means zero args.
				if len(args) == 1 && len(args[0]) == 0 && len(m.Params) == 0 && !m.Variadic {
					args = nil
				}
				want := len(m.Params)
				if m.Variadic {
					if len(args) < want {
						// Allow empty __VA_ARGS__.
						for len(args) < want+1 {
							args = append(args, nil)
						}
					}
				} else if len(args) != want {
					return nil, pp.errorf(inv, "macro %s expects %d arguments, got %d", m.Name, want, len(args))
				}
				return args, nil
			}
			depth--
			cur = append(cur, *t)
		case t.isPunct(",") && depth == 0:
			if m.Variadic && len(args) >= len(m.Params) {
				// Comma belongs to __VA_ARGS__.
				cur = append(cur, *t)
				continue
			}
			args = append(args, cur)
			cur = nil
		default:
			cur = append(cur, *t)
		}
	}
}

// expandList fully expands a detached token list (used for #if operands and
// macro arguments). The worklist around it reads as exhausted meanwhile.
func (pp *Preprocessor) expandList(toks []ppTok) ([]ppTok, error) {
	base, height := pp.base, len(pp.stack)
	defer func() { pp.stack, pp.base = pp.stack[:height], base }()
	pp.base = height
	pp.push(toks)
	out := make([]ppTok, 0, len(toks))
	for {
		t := pp.next()
		if t.kind == ppEOF {
			return out, nil
		}
		e, err := pp.expand(t)
		if err != nil {
			return nil, err
		}
		if e != nil {
			out = append(out, *e)
		}
	}
}

// substituteObject produces the replacement list of an object-like macro.
func substituteObject(m *Macro, inv ppTok) []ppTok {
	out := make([]ppTok, 0, len(m.Body))
	hs := expansionHideset(inv, m.Name)
	for i := 0; i < len(m.Body); i++ {
		t := m.Body[i]
		// Handle ## in object-like bodies.
		if i+2 < len(m.Body) && m.Body[i+1].isPunct("##") {
			pasted := pasteTokens(t, m.Body[i+2], inv)
			pasted = relocate(pasted, inv, hs)
			out = append(out, pasted)
			i += 2
			continue
		}
		out = append(out, relocate(t, inv, hs))
	}
	return out
}

// substituteFunc produces the replacement list of a function-like macro
// invocation, applying # (stringize) and ## (paste).
func (pp *Preprocessor) substituteFunc(m *Macro, inv ppTok, args [][]ppTok) ([]ppTok, error) {
	paramIdx := func(name string) int {
		for i, p := range m.Params {
			if p == name {
				return i
			}
		}
		if m.Variadic && name == "__VA_ARGS__" {
			return len(m.Params)
		}
		return -1
	}
	argFor := func(i int) []ppTok {
		if i < len(args) {
			return args[i]
		}
		return nil
	}
	// Pre-expand each argument once (used where the param is not an operand
	// of # or ##).
	expandedArgs := make([][]ppTok, len(args))
	for i, a := range args {
		e, err := pp.expandList(a)
		if err != nil {
			return nil, err
		}
		expandedArgs[i] = e
	}
	expandedFor := func(i int) []ppTok {
		if i < len(expandedArgs) {
			return expandedArgs[i]
		}
		return nil
	}

	var out []ppTok
	hs := expansionHideset(inv, m.Name)
	body := m.Body
	for i := 0; i < len(body); i++ {
		t := body[i]
		// Stringize: # param
		if t.isPunct("#") && i+1 < len(body) && body[i+1].kind == ppIdent {
			if pi := paramIdx(body[i+1].text); pi >= 0 {
				out = append(out, relocate(stringize(argFor(pi)), inv, hs))
				i++
				continue
			}
		}
		// Paste: X ## Y
		if i+1 < len(body) && body[i+1].isPunct("##") {
			if i+2 >= len(body) {
				return nil, pp.errorf(inv, "## at end of macro body")
			}
			left := t
			lhs := []ppTok{left}
			if left.kind == ppIdent {
				if pi := paramIdx(left.text); pi >= 0 {
					lhs = argFor(pi)
				}
			}
			right := body[i+2]
			rhs := []ppTok{right}
			if right.kind == ppIdent {
				if pi := paramIdx(right.text); pi >= 0 {
					rhs = argFor(pi)
				}
			}
			var pasted []ppTok
			switch {
			case len(lhs) == 0 && len(rhs) == 0:
			case len(lhs) == 0:
				pasted = rhs
			case len(rhs) == 0:
				pasted = lhs
			default:
				mid := pasteTokens(lhs[len(lhs)-1], rhs[0], inv)
				pasted = append(append(append([]ppTok{}, lhs[:len(lhs)-1]...), mid), rhs[1:]...)
			}
			for _, p := range pasted {
				out = append(out, relocate(p, inv, hs))
			}
			i += 2
			continue
		}
		// Plain parameter: substitute the pre-expanded argument.
		if t.kind == ppIdent {
			if pi := paramIdx(t.text); pi >= 0 {
				for _, a := range expandedFor(pi) {
					out = append(out, relocate(a, inv, hs))
				}
				continue
			}
		}
		out = append(out, relocate(t, inv, hs))
	}
	return out, nil
}

// expansionHideset is the hideset every token substituted for inv, an
// invocation of the macro name, gains: inv's own plus name.
func expansionHideset(inv ppTok, name string) map[string]bool {
	hs := make(map[string]bool, len(inv.hideset)+1)
	for k := range inv.hideset {
		hs[k] = true
	}
	hs[name] = true
	return hs
}

// relocate stamps a substituted token with the invocation site's position and
// extends its hideset with hs, the expansion's hideset.
func relocate(t ppTok, inv ppTok, hs map[string]bool) ppTok {
	t.file = inv.file
	t.line = inv.line
	t.bol = false
	t.hideset = union(t.hideset, hs)
	return t
}

// stringize implements the # operator.
func stringize(arg []ppTok) ppTok {
	var b strings.Builder
	for i, t := range arg {
		if i > 0 && t.ws {
			b.WriteByte(' ')
		}
		b.WriteString(t.text)
	}
	return ppTok{kind: ppString, text: strconv.Quote(b.String())}
}

// pasteTokens implements the ## operator by concatenating spellings and
// rescanning; if the result is not a single token it degrades to the raw
// concatenation as a single "other" token (the behavior is undefined in C,
// C11 §6.10.3.3:3 — we keep going so the real lexer reports it).
func pasteTokens(a, b ppTok, inv ppTok) ppTok {
	text := a.text + b.text
	sc := newPPScanner(text, inv.file)
	t := sc.next()
	rest := sc.next()
	if rest.kind == ppEOF && t.kind != ppEOF {
		t.file = inv.file
		t.line = inv.line
		return t
	}
	return ppTok{kind: ppOther, text: text, file: inv.file, line: inv.line}
}

// evalCondition evaluates a #if/#elif controlling expression.
func (pp *Preprocessor) evalCondition(toks []ppTok, dir ppTok) (int64, error) {
	// Replace defined X / defined(X) before macro expansion.
	var pre []ppTok
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.isIdent("defined") {
			var name string
			if i+1 < len(toks) && toks[i+1].kind == ppIdent {
				name = toks[i+1].text
				i++
			} else if i+3 < len(toks) && toks[i+1].isPunct("(") && toks[i+2].kind == ppIdent && toks[i+3].isPunct(")") {
				name = toks[i+2].text
				i += 3
			} else {
				return 0, pp.errorf(dir, "malformed defined()")
			}
			val := "0"
			if pp.macro(name) != nil {
				val = "1"
			}
			pre = append(pre, ppTok{kind: ppNumber, text: val, file: t.file, line: t.line})
			continue
		}
		pre = append(pre, t)
	}
	exp, err := pp.expandList(pre)
	if err != nil {
		return 0, err
	}
	// Remaining identifiers evaluate to 0 (C11 §6.10.1:4).
	ev := &condEval{toks: exp, pp: pp, dir: dir}
	v, err := ev.parseExpr(0)
	if err != nil {
		return 0, err
	}
	if ev.i < len(ev.toks) {
		return 0, pp.errorf(dir, "trailing tokens in #if expression")
	}
	return v, nil
}

// condEval is a precedence-climbing evaluator for #if expressions.
type condEval struct {
	toks []ppTok
	i    int
	pp   *Preprocessor
	dir  ppTok
}

func (ev *condEval) peek() ppTok {
	if ev.i >= len(ev.toks) {
		return ppTok{kind: ppEOF}
	}
	return ev.toks[ev.i]
}

func (ev *condEval) next() ppTok {
	t := ev.peek()
	ev.i++
	return t
}

var condPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}

func (ev *condEval) parseExpr(minPrec int) (int64, error) {
	lhs, err := ev.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		t := ev.peek()
		if t.kind != ppPunct {
			break
		}
		if t.text == "?" && minPrec == 0 {
			ev.next()
			thenV, err := ev.parseExpr(0)
			if err != nil {
				return 0, err
			}
			if !ev.peek().isPunct(":") {
				return 0, ev.pp.errorf(ev.dir, "expected : in #if conditional")
			}
			ev.next()
			elseV, err := ev.parseExpr(0)
			if err != nil {
				return 0, err
			}
			if lhs != 0 {
				lhs = thenV
			} else {
				lhs = elseV
			}
			continue
		}
		prec, ok := condPrec[t.text]
		if !ok || prec < minPrec {
			break
		}
		ev.next()
		// Short-circuit.
		if t.text == "||" && lhs != 0 {
			if _, err := ev.parseExpr(prec + 1); err != nil {
				return 0, err
			}
			lhs = 1
			continue
		}
		if t.text == "&&" && lhs == 0 {
			if _, err := ev.parseExpr(prec + 1); err != nil {
				return 0, err
			}
			lhs = 0
			continue
		}
		rhs, err := ev.parseExpr(prec + 1)
		if err != nil {
			return 0, err
		}
		lhs, err = ev.apply(t.text, lhs, rhs)
		if err != nil {
			return 0, err
		}
	}
	return lhs, nil
}

func (ev *condEval) apply(op string, a, b int64) (int64, error) {
	btoi := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case "||":
		return btoi(a != 0 || b != 0), nil
	case "&&":
		return btoi(a != 0 && b != 0), nil
	case "|":
		return a | b, nil
	case "^":
		return a ^ b, nil
	case "&":
		return a & b, nil
	case "==":
		return btoi(a == b), nil
	case "!=":
		return btoi(a != b), nil
	case "<":
		return btoi(a < b), nil
	case ">":
		return btoi(a > b), nil
	case "<=":
		return btoi(a <= b), nil
	case ">=":
		return btoi(a >= b), nil
	case "<<":
		return a << (uint64(b) & 63), nil
	case ">>":
		return a >> (uint64(b) & 63), nil
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		if b == 0 {
			return 0, ev.pp.errorf(ev.dir, "division by zero in #if")
		}
		return a / b, nil
	case "%":
		if b == 0 {
			return 0, ev.pp.errorf(ev.dir, "division by zero in #if")
		}
		return a % b, nil
	}
	return 0, ev.pp.errorf(ev.dir, "unknown operator %q in #if", op)
}

func (ev *condEval) parseUnary() (int64, error) {
	t := ev.next()
	switch {
	case t.isPunct("!"):
		v, err := ev.parseUnary()
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case t.isPunct("-"):
		v, err := ev.parseUnary()
		return -v, err
	case t.isPunct("+"):
		return ev.parseUnary()
	case t.isPunct("~"):
		v, err := ev.parseUnary()
		return ^v, err
	case t.isPunct("("):
		v, err := ev.parseExpr(0)
		if err != nil {
			return 0, err
		}
		if !ev.peek().isPunct(")") {
			return 0, ev.pp.errorf(ev.dir, "missing ) in #if expression")
		}
		ev.next()
		return v, nil
	case t.kind == ppNumber:
		return parsePPNumber(t.text)
	case t.kind == ppChar:
		return parsePPChar(t.text)
	case t.kind == ppIdent:
		return 0, nil // undefined identifiers are 0
	case t.kind == ppEOF:
		return 0, ev.pp.errorf(ev.dir, "missing operand in #if expression")
	}
	return 0, ev.pp.errorf(ev.dir, "unexpected token %q in #if expression", t.text)
}

func parsePPNumber(text string) (int64, error) {
	s := strings.TrimRight(text, "uUlL")
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed integer %q in #if", text)
	}
	return int64(v), nil
}

func parsePPChar(text string) (int64, error) {
	s := strings.TrimPrefix(text, "L")
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		if len(body) == 1 {
			return int64(body[0]), nil
		}
		if len(body) == 2 && body[0] == '\\' {
			switch body[1] {
			case 'n':
				return '\n', nil
			case 't':
				return '\t', nil
			case '0':
				return 0, nil
			case 'r':
				return '\r', nil
			case '\\', '\'', '"':
				return int64(body[1]), nil
			}
		}
	}
	return 0, fmt.Errorf("unsupported character constant %q in #if", text)
}
