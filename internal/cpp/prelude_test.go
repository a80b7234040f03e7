package cpp_test

import (
	"slices"
	"testing"

	"repro/internal/cheaders"
	"repro/internal/cpp"
	"repro/internal/suite"
)

func TestLead(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{"#include <stdio.h>\n#include \"stdlib.h\"\nint x;\n", []string{"stdio.h", "stdlib.h"}},
		{"/* salt */\n// c\n  #include <stdio.h> /* t */\n\n#include <stdio.h>", []string{"stdio.h", "stdio.h"}},
		{"#include <stdio.h>\r\n#include <string.h>\r\n", []string{"stdio.h", "string.h"}},
		{"#include <stdio.h>\n#define X\n#include <stdlib.h>\n", []string{"stdio.h"}},
		{"#define NDEBUG\n#include <assert.h>\n", nil},
		{"int x;\n#include <stdio.h>\n", nil},
		{"# include < stdio.h >\n", nil},            // whitespace inside the brackets
		{"#include <std\\\nio.h>\n", nil},           // a splice inside the name
		{"#include <stdio.h> x\n", nil},             // more on the line
		{"#include <unknown.h>\n", nil},             // not a built-in header
		{"#include HDR\n", nil},                     // a macro operand
		{"#\n#include <stdio.h>\n", nil},            // a null directive
		{"#include <stdio.h>", []string{"stdio.h"}}, // no final newline
	} {
		if got := cheaders.Lead(tc.src).Headers; !slices.Equal(got, tc.want) {
			t.Errorf("Lead(%q) = %q, want %q", tc.src, got, tc.want)
		}
	}
}

// TestRunAfterSuffix checks, for every suite and torture unit, that the
// prelude's text followed by what RunAfter emits for the rest of the
// unit is what Run emits for the whole unit.
func TestRunAfterSuffix(t *testing.T) {
	srcs := map[string]string{}
	for _, s := range []*suite.Suite{suite.Juliet(), suite.Own()} {
		for _, c := range s.Cases {
			srcs[c.Name] = c.Source
		}
	}
	for _, c := range suite.Torture() {
		srcs[c.Name] = c.Source
	}
	srcs["comments"] = "/* a\n b */ #include <stdio.h> // x\n\n#include <stdlib.h>\nint main(void) { return EOF + 1; }\n"
	srcs["crlf"] = "#include <stdio.h>\r\n\r\nint main(void) {\r\n  return 0;\r\n}\r\n"
	r := cpp.ChainResolver{cheaders.Resolver(), cpp.FSResolver{}}
	for name, src := range srcs {
		file := name + ".c"
		want, werr := cpp.New(r).Run(src, file)
		lead := cheaders.Lead(src)
		pre, text, err := cpp.New(cheaders.Resolver()).Prelude(lead.Headers)
		if err != nil {
			t.Fatalf("%s: prelude %q: %v", name, lead.Headers, err)
		}
		rest, rerr := cpp.New(r).RunAfter(pre, lead, src, file)
		if (werr != nil) != (rerr != nil) || werr == nil && text+rest != want {
			t.Errorf("%s: Run gives %q (%v); the prelude and RunAfter give %q (%v)", name, want, werr, text+rest, rerr)
		}
	}
}
