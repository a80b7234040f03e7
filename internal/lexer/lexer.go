// Package lexer tokenizes preprocessed C99/C11 source text.
//
// The input is ordinarily the output of internal/cpp, which inserts
// GNU-style line markers of the form
//
//	# 42 "file.c"
//
// so that token positions refer to the original, un-preprocessed source.
// The lexer also accepts raw (non-preprocessed) C as long as it contains no
// preprocessing directives other than line markers.
package lexer

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans a source string into tokens.
type Lexer struct {
	src  string
	off  int
	file string
	line int
	col  int
}

// New returns a lexer for src. file is used for positions until the first
// line marker overrides it.
func New(src, file string) *Lexer {
	return NewAt(src, token.Pos{File: file, Line: 1, Col: 1})
}

// NewAt returns a lexer for src that starts at position at: the lexer of
// a text that continues another, from where that one's Pos stood.
func NewAt(src string, at token.Pos) *Lexer {
	return &Lexer{src: src, file: at.File, line: at.Line, col: at.Col}
}

// Pos is the position of the lexer's next byte of input.
func (lx *Lexer) Pos() token.Pos { return lx.pos() }

// Tokens scans the entire input and returns all tokens (excluding EOF).
func Tokens(src, file string) ([]token.Token, error) {
	lx := New(src, file)
	toks := make([]token.Token, 0, len(src)/bytesPerToken+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		if t.Kind == token.EOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

// bytesPerToken sizes Tokens' slice: the preprocessor's output averages
// about four bytes per token over the suite units, and as few as three.
const bytesPerToken = 3

func (lx *Lexer) pos() token.Pos {
	return token.Pos{File: lx.file, Line: lx.line, Col: lx.col}
}

func (lx *Lexer) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// skipWhitespaceAndComments consumes spaces, comments, and line markers.
func (lx *Lexer) skipWhitespaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case isSpace(c):
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			pos := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errorf(pos, "unterminated block comment")
			}
		case c == '#' && lx.col == 1:
			if err := lx.lineMarker(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
	return nil
}

// lineMarker parses "# <line> \"file\"" (or "#line <n> \"file\"") and resets
// the position accounting.
func (lx *Lexer) lineMarker() error {
	pos := lx.pos()
	start := lx.off
	for lx.off < len(lx.src) && lx.peek() != '\n' {
		lx.advance()
	}
	text := lx.src[start:lx.off]
	// Consume the newline, if present.
	if lx.off < len(lx.src) {
		lx.advance()
	}
	body := strings.TrimSpace(strings.TrimPrefix(text, "#"))
	body = strings.TrimSpace(strings.TrimPrefix(body, "line"))
	if body == "" {
		return nil // "#" alone: null directive
	}
	num, rest, hasFile := strings.Cut(body, " ")
	n, err := strconv.Atoi(strings.TrimSpace(num))
	if err != nil {
		return lx.errorf(pos, "malformed line marker %q", text)
	}
	lx.line = n
	lx.col = 1
	if hasFile {
		f := strings.TrimSpace(rest)
		if len(f) >= 2 && f[0] == '"' {
			if unq, err := strconv.Unquote(f); err == nil {
				lx.file = unq
			} else {
				lx.file = strings.Trim(f, `"`)
			}
		}
	}
	return nil
}

// Next returns the next token.
func (lx *Lexer) Next() (token.Token, error) {
	if err := lx.skipWhitespaceAndComments(); err != nil {
		return token.Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return token.Token{Kind: token.EOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		return lx.scanIdent(pos)
	case isDigit(c), c == '.' && isDigit(lx.peekAt(1)):
		return lx.scanNumber(pos)
	case c == '\'':
		return lx.scanChar(pos, false)
	case c == '"':
		return lx.scanString(pos, false)
	case c == 'L' && lx.peekAt(1) == '\'':
		lx.advance()
		return lx.scanChar(pos, true)
	case c == 'L' && lx.peekAt(1) == '"':
		lx.advance()
		return lx.scanString(pos, true)
	}
	return lx.scanPunct(pos)
}

func (lx *Lexer) scanIdent(pos token.Pos) (token.Token, error) {
	start := lx.off
	for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
		lx.advance()
	}
	text := lx.src[start:lx.off]
	// Wide literal prefixes.
	if text == "L" && (lx.peek() == '\'' || lx.peek() == '"') {
		if lx.peek() == '\'' {
			return lx.scanChar(pos, true)
		}
		return lx.scanString(pos, true)
	}
	if k, ok := token.Keywords[text]; ok {
		return token.Token{Kind: k, Text: text, Pos: pos}, nil
	}
	return token.Token{Kind: token.Ident, Text: text, Pos: pos}, nil
}

func (lx *Lexer) scanNumber(pos token.Pos) (token.Token, error) {
	start := lx.off
	isFloat := false
	hex := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		hex = true
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && (isHexDigit(lx.peek()) || lx.peek() == '.') {
			if lx.peek() == '.' {
				isFloat = true
			}
			lx.advance()
		}
		// Hex float exponent.
		if lx.peek() == 'p' || lx.peek() == 'P' {
			isFloat = true
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' {
			isFloat = true
			lx.advance()
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			isFloat = true
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
	}
	// Suffixes: integer [uU][lL]{0,2} in any order; float [fFlL].
	for lx.off < len(lx.src) {
		c := lx.peek()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' || (isFloat && (c == 'f' || c == 'F')) {
			lx.advance()
			continue
		}
		break
	}
	text := lx.src[start:lx.off]
	if isFloat && !hex {
		return token.Token{Kind: token.FloatLit, Text: text, Pos: pos}, nil
	}
	if isFloat && hex {
		return token.Token{Kind: token.FloatLit, Text: text, Pos: pos}, nil
	}
	if isIdentStart(lx.peek()) {
		return token.Token{}, lx.errorf(pos, "malformed numeric constant %q", text+string(lx.peek()))
	}
	return token.Token{Kind: token.IntLit, Text: text, Pos: pos}, nil
}

func (lx *Lexer) scanChar(pos token.Pos, wide bool) (token.Token, error) {
	prefix := ""
	if wide {
		prefix = "L"
	}
	lx.advance() // opening '
	start := lx.off
	for {
		if lx.off >= len(lx.src) || lx.peek() == '\n' {
			return token.Token{}, lx.errorf(pos, "unterminated character constant")
		}
		if lx.peek() == '\\' {
			lx.advance()
			if lx.off >= len(lx.src) {
				return token.Token{}, lx.errorf(pos, "unterminated character constant")
			}
			lx.advance()
			continue
		}
		if lx.peek() == '\'' {
			break
		}
		lx.advance()
	}
	body := lx.src[start:lx.off]
	lx.advance() // closing '
	if body == "" {
		return token.Token{}, lx.errorf(pos, "empty character constant")
	}
	return token.Token{Kind: token.CharLit, Text: prefix + "'" + body + "'", Pos: pos}, nil
}

func (lx *Lexer) scanString(pos token.Pos, wide bool) (token.Token, error) {
	prefix := ""
	if wide {
		prefix = "L"
	}
	lx.advance() // opening "
	start := lx.off
	for {
		if lx.off >= len(lx.src) || lx.peek() == '\n' {
			return token.Token{}, lx.errorf(pos, "unterminated string literal")
		}
		if lx.peek() == '\\' {
			lx.advance()
			if lx.off >= len(lx.src) {
				return token.Token{}, lx.errorf(pos, "unterminated string literal")
			}
			lx.advance()
			continue
		}
		if lx.peek() == '"' {
			break
		}
		lx.advance()
	}
	body := lx.src[start:lx.off]
	lx.advance() // closing "
	return token.Token{Kind: token.StringLit, Text: prefix + `"` + body + `"`, Pos: pos}, nil
}

// punct3, punct2 are the multi-character punctuators, longest first.
var punct3 = map[string]token.Kind{
	"...": token.Ellipsis, "<<=": token.ShlAssign, ">>=": token.ShrAssign,
}

var punct2 = map[string]token.Kind{
	"->": token.Arrow, "++": token.Inc, "--": token.Dec, "<<": token.Shl,
	">>": token.Shr, "<=": token.Le, ">=": token.Ge, "==": token.EqEq,
	"!=": token.NotEq, "&&": token.AndAnd, "||": token.OrOr,
	"*=": token.MulAssign, "/=": token.DivAssign, "%=": token.ModAssign,
	"+=": token.AddAssign, "-=": token.SubAssign, "&=": token.AndAssign,
	"^=": token.XorAssign, "|=": token.OrAssign,
}

var punct1 = map[byte]token.Kind{
	'[': token.LBracket, ']': token.RBracket, '(': token.LParen,
	')': token.RParen, '{': token.LBrace, '}': token.RBrace,
	'.': token.Dot, '&': token.Amp, '*': token.Star, '+': token.Plus,
	'-': token.Minus, '~': token.Tilde, '!': token.Not, '/': token.Slash,
	'%': token.Percent, '<': token.Lt, '>': token.Gt, '^': token.Caret,
	'|': token.Pipe, '?': token.Question, ':': token.Colon, ';': token.Semi,
	'=': token.Assign, ',': token.Comma,
}

func (lx *Lexer) scanPunct(pos token.Pos) (token.Token, error) {
	rest := lx.src[lx.off:]
	if len(rest) >= 3 {
		if k, ok := punct3[rest[:3]]; ok {
			lx.advance()
			lx.advance()
			lx.advance()
			return token.Token{Kind: k, Text: rest[:3], Pos: pos}, nil
		}
	}
	if len(rest) >= 2 {
		if k, ok := punct2[rest[:2]]; ok {
			lx.advance()
			lx.advance()
			return token.Token{Kind: k, Text: rest[:2], Pos: pos}, nil
		}
	}
	c := lx.peek()
	if k, ok := punct1[c]; ok {
		lx.advance()
		return token.Token{Kind: k, Text: rest[:1], Pos: pos}, nil
	}
	return token.Token{}, lx.errorf(pos, "unexpected character %q", string(c))
}
