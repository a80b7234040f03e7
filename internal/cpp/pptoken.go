// Package cpp implements the C preprocessor: #include, object- and
// function-like macros with # and ## operators, conditional compilation,
// #error, #line, and the predefined macros.
//
// Output is plain C text with GNU-style line markers (# <line> "<file>") so
// that downstream positions refer to the original source.
package cpp

import (
	"fmt"
	"strings"
)

// ppTok is a preprocessing token. The preprocessor works on a coarser token
// class than the real lexer: any punctuator is kept as its text.
type ppTok struct {
	kind    ppKind
	text    string
	file    string
	line    int
	bol     bool            // first token on its (logical) line
	ws      bool            // preceded by whitespace
	hideset map[string]bool // macros that must not expand this token
}

type ppKind int

const (
	ppEOF ppKind = iota
	ppIdent
	ppNumber
	ppString
	ppChar
	ppPunct
	ppOther      // stray characters (passed through; the real lexer will object)
	ppIncludeEnd // internal marker: end of an #include splice
)

func (t ppTok) isIdent(s string) bool { return t.kind == ppIdent && t.text == s }

func (t ppTok) isPunct(s string) bool { return t.kind == ppPunct && t.text == s }

func (t ppTok) pos() string { return fmt.Sprintf("%s:%d", t.file, t.line) }

// union returns the hideset a ∪ b, reusing b when a adds nothing to it.
// Hidesets are never written once built, so tokens may share them.
func union(a, b map[string]bool) map[string]bool {
	for k := range a {
		if !b[k] {
			u := make(map[string]bool, len(a)+len(b))
			for k := range b {
				u[k] = true
			}
			for k := range a {
				u[k] = true
			}
			return u
		}
	}
	return b
}

// normalizeNewlines turns CRLF line endings into LF. Backslash-newline
// splices are not removed here: the scanner skips them as it goes, so that
// it can keep counting physical lines.
func normalizeNewlines(s string) string {
	return strings.ReplaceAll(s, "\r\n", "\n")
}

// ppScanner tokenizes one file into preprocessing tokens.
type ppScanner struct {
	src  string
	off  int
	file string
	line int
	bol  bool
	ws   bool
}

func newPPScanner(src, file string) ppScanner {
	return ppScanner{src: normalizeNewlines(src), file: file, line: 1, bol: true}
}

func (s *ppScanner) peek() byte {
	if s.off >= len(s.src) {
		return 0
	}
	return s.src[s.off]
}

func (s *ppScanner) peekAt(n int) byte {
	if s.off+n >= len(s.src) {
		return 0
	}
	return s.src[s.off+n]
}

// bump consumes one character, handling backslash-newline splices
// transparently (they count as nothing, but advance the line number).
func (s *ppScanner) bump() byte {
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
	}
	return c
}

// skipSplices consumes any backslash-newline sequences at the cursor.
func (s *ppScanner) skipSplices() {
	for s.peek() == '\\' && s.peekAt(1) == '\n' {
		s.bump()
		s.bump()
	}
}

// next returns the next preprocessing token. Newlines produce a token with
// kind ppPunct and text "\n" so the directive parser can find line ends.
func (s *ppScanner) next() ppTok {
	s.ws = false
	for {
		s.skipSplices()
		c := s.peek()
		if c == 0 {
			return ppTok{kind: ppEOF, file: s.file, line: s.line, bol: s.bol}
		}
		if c == '\n' {
			t := ppTok{kind: ppPunct, text: "\n", file: s.file, line: s.line}
			s.bump()
			s.bol = true
			return t
		}
		if c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' {
			s.bump()
			s.ws = true
			continue
		}
		if c == '/' && s.peekAt(1) == '/' {
			for s.peek() != 0 && s.peek() != '\n' {
				s.bump()
			}
			s.ws = true
			continue
		}
		if c == '/' && s.peekAt(1) == '*' {
			s.bump()
			s.bump()
			for s.peek() != 0 {
				if s.peek() == '*' && s.peekAt(1) == '/' {
					s.bump()
					s.bump()
					break
				}
				s.bump()
			}
			s.ws = true
			continue
		}
		break
	}
	tok := ppTok{file: s.file, line: s.line, bol: s.bol, ws: s.ws}
	s.bol = false
	c := s.peek()
	switch {
	case isIdentStart(c):
		start := s.off
		for isIdentCont(s.peek()) {
			s.bump()
			s.skipSplices()
		}
		tok.kind = ppIdent
		tok.text = s.src[start:s.off]
		// Wide string/char prefix.
		if tok.text == "L" && (s.peek() == '"' || s.peek() == '\'') {
			q := s.scanQuoted()
			tok.text = "L" + q
			if q[0] == '"' {
				tok.kind = ppString
			} else {
				tok.kind = ppChar
			}
		}
	case isDigit(c) || (c == '.' && isDigit(s.peekAt(1))):
		// pp-number: digits, idents, dots, and e+/e-/p+/p- pairs.
		start := s.off
		s.bump()
		for {
			s.skipSplices()
			c := s.peek()
			if c == 'e' || c == 'E' || c == 'p' || c == 'P' {
				if n := s.peekAt(1); n == '+' || n == '-' {
					s.bump()
					s.bump()
					continue
				}
			}
			if isIdentCont(c) || c == '.' {
				s.bump()
				continue
			}
			break
		}
		tok.kind = ppNumber
		tok.text = s.src[start:s.off]
	case c == '"':
		tok.kind = ppString
		tok.text = s.scanQuoted()
	case c == '\'':
		tok.kind = ppChar
		tok.text = s.scanQuoted()
	default:
		tok.kind = ppPunct
		tok.text = s.scanPunct()
		if tok.text == "" {
			tok.kind = ppOther
			tok.text = string(s.bump())
		}
	}
	return tok
}

// scanQuoted scans a string or character literal. Its spelling is a slice
// of the source unless a backslash-newline splice has to be cut out.
func (s *ppScanner) scanQuoted() string {
	start := s.off
	quote := s.bump()
	var b []byte // the spelling so far, once a splice was cut out
	for s.peek() != 0 && s.peek() != '\n' {
		if s.peek() == '\\' && s.peekAt(1) == '\n' {
			if b == nil {
				b = []byte(s.src[start:s.off])
			}
			s.skipSplices()
			continue
		}
		from := s.off
		c := s.bump()
		if c == '\\' && s.peek() != '\n' && s.peek() != 0 {
			s.bump()
		}
		if b != nil {
			b = append(b, s.src[from:s.off]...)
		}
		if c == quote {
			break
		}
	}
	if b != nil {
		return string(b)
	}
	return s.src[start:s.off]
}

// scanPunct scans the longest punctuator at the cursor, or returns "".
func (s *ppScanner) scanPunct() string {
	rest := s.src[s.off:]
	for n := min(3, len(rest)); n > 0; n-- {
		if p := rest[:n]; isPunctuator(p) {
			s.off += n
			return p
		}
	}
	return ""
}

func isPunctuator(p string) bool {
	switch p {
	case "...", "<<=", ">>=",
		"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
		"*=", "/=", "%=", "+=", "-=", "&=", "^=", "|=", "##",
		"[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
		"/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",", "#":
		return true
	}
	return false
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }
