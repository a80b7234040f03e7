package parser

import (
	"testing"

	"repro/internal/ctypes"
	"repro/internal/suite"
)

// FuzzParser asserts the parser's crash-freedom contract: any input
// either parses into a translation unit or returns a diagnostic — it
// never panics, however malformed the declarator soup.
func FuzzParser(f *testing.F) {
	f.Add(`int main(void) { return 0; }`)
	f.Add(`struct s { int n; int a[]; }; int main(void) { struct s x; return 0; }`)
	f.Add(`int (*(*fp)(int))[3]; typedef int T; T t = (T)0;`)
	f.Add(`void f() { for(;;) if(1) while(0) do ; while(1); }`)
	f.Add(`int a[ = } ( ;`)
	f.Add(`typedef struct s s; struct s { s *next; };`)
	f.Add(`int x = sizeof(struct { int b : 3; });`)
	f.Add(`enum { E = -1U / 2 > 0 }; int main(void) { return E; }`)
	f.Add(`int main(void) { switch (2147483647u) { case -1U / 2: return 0; default: return 1; } }`)
	f.Add(`enum { F = (-1 < 0U) }; static int b[(-1 < 0U) + 1]; int main(void) { return F; }`)
	f.Add(`int a[-1U / 2147483647U]; int main(void) { return sizeof a / sizeof a[0]; }`)
	f.Add(`int b[4]; int a[sizeof b / sizeof b[0]]; int main(void) { return sizeof a / sizeof a[0]; }`)
	f.Add(`int main(void) { switch (0) { case 1 << 33: return 1; } return 0; }`)
	f.Add(`int a[1 << 33]; int main(void) { return 0; }`)
	f.Add(`enum { G = 0 && 1 / 0, H = 1 ? 2 : 1 / 0, I = (1 ? -1 : 0u) > 0 }; int main(void) { return G + H + I; }`)
	f.Add(`_Static_assert(-1U > 0, "-1U is positive"); int main(void) { return 0; }`)
	f.Add(`struct s { unsigned f : -1U / 2147483647U; }; int main(void) { struct s x; x.f = 7; return x.f; }`)
	for _, s := range suite.Juliet().Cases[:8] {
		f.Add(s.Source)
	}
	for _, tc := range suite.Torture()[:4] {
		f.Add(tc.Source)
	}
	model := ctypes.LP64()
	f.Fuzz(func(t *testing.T, src string) {
		tu, err := Parse(src, "fuzz.c", model)
		if err == nil && tu == nil {
			t.Error("nil translation unit without error")
		}
	})
}
