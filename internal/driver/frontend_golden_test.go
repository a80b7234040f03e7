package driver_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/sema"
	"repro/internal/suite"
)

var update = flag.Bool("update", false, "rewrite testdata/frontend.golden from the current frontend")

const frontendGoldenPath = "testdata/frontend.golden"

// parserSeeds are FuzzParser's hand-picked seeds (internal/parser).
var parserSeeds = []string{
	`int main(void) { return 0; }`,
	`struct s { int n; int a[]; }; int main(void) { struct s x; return 0; }`,
	`int (*(*fp)(int))[3]; typedef int T; T t = (T)0;`,
	`void f() { for(;;) if(1) while(0) do ; while(1); }`,
	`int a[ = } ( ;`,
	`typedef struct s s; struct s { s *next; };`,
	`int x = sizeof(struct { int b : 3; });`,
	`enum { E = -1U / 2 > 0 }; int main(void) { return E; }`,
	`int main(void) { switch (2147483647u) { case -1U / 2: return 0; default: return 1; } }`,
	`enum { F = (-1 < 0U) }; static int b[(-1 < 0U) + 1]; int main(void) { return F; }`,
	`int a[-1U / 2147483647U]; int main(void) { return sizeof a / sizeof a[0]; }`,
	`int b[4]; int a[sizeof b / sizeof b[0]]; int main(void) { return sizeof a / sizeof a[0]; }`,
	`int main(void) { switch (0) { case 1 << 33: return 1; } return 0; }`,
	`int a[1 << 33]; int main(void) { return 0; }`,
	`enum { G = 0 && 1 / 0, H = 1 ? 2 : 1 / 0, I = (1 ? -1 : 0u) > 0 }; int main(void) { return G + H + I; }`,
	`_Static_assert(-1U > 0, "-1U is positive"); int main(void) { return 0; }`,
	`struct s { unsigned f : -1U / 2147483647U; }; int main(void) { struct s x; x.f = 7; return x.f; }`,
}

// hardUnits are units whose leading includes interact with the rest of
// the unit: a macro defined before the include, a redeclared, defined or
// referenced-before-defined library function, a repeated or late
// include, an order of headers the suites do not use, comments and
// line endings before or between the includes.
var hardUnits = []struct{ name, src string }{
	{"ndebug_before_assert", "#define NDEBUG\n#include <assert.h>\nint main(void) { assert(0); return 0; }\n"},
	{"assert_without_ndebug", "#include <assert.h>\nint main(void) { int x = 1; assert(x == 1); return 0; }\n"},
	{"size_t_macro_before_stddef", "#define size_t int\n#include <stddef.h>\nint main(void) { size_t x = 1; return x - 1; }\n"},
	{"redeclare_malloc", "#include <stdlib.h>\nvoid *malloc(size_t);\nint main(void) { int *p = malloc(sizeof *p); *p = 0; int r = *p; free(p); return r; }\n"},
	{"old_style_abs", "#include <stdlib.h>\nint abs();\nint main(void) { return abs(-1) - 1; }\n"},
	{"old_style_abs_first", "int abs();\n#include <stdlib.h>\nint main(void) { return abs(-1) - 1; }\n"},
	{"define_abs", "#include <stdlib.h>\nint abs(int j) { return j < 0 ? -j : j; }\nint main(void) { return abs(-3) - 3; }\n"},
	{"use_abs_then_define", "#include <stdlib.h>\nint main(void) { return abs(-3) - 3; }\nint abs(int j) { return j < 0 ? -j : j; }\n"},
	{"define_abs_twice", "#include <stdlib.h>\nint abs(int j) { return j; }\nint abs(int j) { return -j; }\nint main(void) { return 0; }\n"},
	{"conflicting_printf", "#include <stdio.h>\nint printf(int);\nint main(void) { return 0; }\n"},
	{"extern_printf", "#include <stdio.h>\nextern int printf(const char *, ...);\nint main(void) { printf(\"%d\\n\", 1); return 0; }\n"},
	{"printf_pointer", "#include <stdio.h>\nint (*pf)(const char *, ...) = printf;\nint main(void) { pf(\"x\\n\"); return 0; }\n"},
	{"block_scope_redeclare", "#include <stdlib.h>\nint main(void) { int abs(int); void *malloc(size_t); return abs(0); }\n"},
	{"shadow_size_t", "#include <stddef.h>\nint main(void) { int size_t = 3; return size_t - 3; }\n"},
	{"stdio_twice", "#include <stdio.h>\n#include <stdio.h>\nint main(void) { printf(\"hi\\n\"); return 0; }\n"},
	{"include_after_decl", "int x;\n#include <stdio.h>\nint main(void) { printf(\"%d\\n\", x); return 0; }\n"},
	{"include_after_run", "#include <stdio.h>\nint x;\n#include <stdlib.h>\nint main(void) { return abs(x); }\n"},
	{"define_between_includes", "#include <stdio.h>\n#define NDEBUG\n#include <assert.h>\nint main(void) { assert(0); puts(\"ok\"); return 0; }\n"},
	{"string_before_stdio", "#include <string.h>\n#include <stdio.h>\nint main(void) { char b[8]; strcpy(b, \"ok\"); puts(b); return (int)strlen(b) - 2; }\n"},
	{"comment_first", "/* salt 1 */\n// a line comment\n#include <stdio.h>\n/* between */ #include <stdlib.h>\nint main(void) { printf(\"x\\n\"); return 0; }\n"},
	{"comments_in_run", "  /* a\n   b */ #include <stdio.h> // trailing\n\n#include \"stdlib.h\"\n\nint main(void) { puts(\"y\"); return EXIT_SUCCESS; }\n"},
	{"spaced_include", "# include < stdio.h >\nint main(void) { return 0; }\n"},
	{"spliced_include", "#include <std\\\nio.h>\nint main(void) { puts(\"z\"); return 0; }\n"},
	{"crlf_lines", "#include <stdio.h>\r\n#include <stdint.h>\r\nint main(void) {\r\n  int64_t v = 8;\r\n  printf(\"%d\\n\", (int)sizeof v);\r\n  return 0;\r\n}\r\n"},
	{"undef_null", "#include <stdio.h>\n#undef NULL\n#define NULL 0\nint main(void) { int *p = NULL; return p != NULL; }\n"},
	{"limits_stdint", "#include <limits.h>\n#include <stdint.h>\nint main(void) { long m = LONG_MAX; int64_t v = INT64_MAX; return (m > 0) - (v > 0); }\n"},
	{"headers_only", "#include <stdio.h>\n#include <stdlib.h>\n"},
	{"macro_headers_only", "#include <stdbool.h>\n#include <limits.h>\nbool b = true;\nint main(void) { return b && INT_MAX > 0 ? 0 : 1; }\n"},
	{"parse_error_after_run", "#include <stdio.h>\nint main(void) { return 0 }\n"},
	{"undeclared_after_run", "#include <stdio.h>\nint main(void) { return nosuch(1); }\n"},
	{"static_ub_after_run", "#include <stdio.h>\nint a[0];\nint main(void) { return 0; }\n"},
	{"unterminated_if_after_run", "#include <stdio.h>\n#if 1\nint main(void) { return 0; }\n"},
	{"counter_after_run", "#include <stdio.h>\nint a = __COUNTER__, b = __COUNTER__;\nint main(void) { return a + b - 1; }\n"},
	{"line_after_run", "#include <stdlib.h>\n\n\n\nint main(void) { return __LINE__ - 5; }\n"},
}

// arrayUnits declare arrays of negative constant length, which C11
// §6.7.6.2:1 forbids: each is static UB 00069, like a zero length.
var arrayUnits = []struct{ name, src string }{
	{"negative_file_scope", "int a[-1];\nint main(void) { return 0; }\n"},
	{"negative_block_scope", "int main(void) { int a[-2]; a[0] = 1; return 0; }\n"},
	{"negative_folded", "int a[1-2];\nint main(void) { return 0; }\n"},
	{"negative_parameter", "int f(int p[-1]) { return p != 0; }\nint main(void) { return f(0); }\n"},
}

type frontendUnit struct{ id, src, file string }

// frontendUnits lists every pinned unit: the Juliet and own suites, the
// torture programs, the FuzzParser seeds and the on-disk FuzzCPP and
// FuzzLexer corpora.
func frontendUnits(t *testing.T) []frontendUnit {
	t.Helper()
	var us []frontendUnit
	for _, s := range []*suite.Suite{suite.Juliet(), suite.Own()} {
		for _, c := range s.Cases {
			us = append(us, frontendUnit{s.Name + "/" + c.Name, c.Source, c.Name + ".c"})
		}
	}
	for _, c := range suite.Torture() {
		us = append(us, frontendUnit{"torture/" + c.Name, c.Source, c.Name + ".c"})
	}
	for _, h := range hardUnits {
		us = append(us, frontendUnit{"hard/" + h.name, h.src, h.name + ".c"})
	}
	for _, a := range arrayUnits {
		us = append(us, frontendUnit{"array/" + a.name, a.src, a.name + ".c"})
	}
	for i, s := range parserSeeds {
		us = append(us, frontendUnit{"fuzz/parser#" + strconv.Itoa(i), s, "fuzz.c"})
	}
	for _, dir := range []string{"../cpp/testdata/fuzz/FuzzCPP", "../lexer/testdata/fuzz/FuzzLexer"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			src, err := corpusString(string(b))
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			us = append(us, frontendUnit{"fuzz/" + filepath.Base(dir) + "/" + e.Name(), src, "fuzz.c"})
		}
	}
	return us
}

// corpusString decodes a one-string fuzz corpus file ("go test fuzz v1"
// followed by a string(...) line).
func corpusString(file string) (string, error) {
	lines := strings.Split(strings.TrimSpace(file), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") || !strings.HasSuffix(lines[1], ")") {
		return "", fmt.Errorf("not a one-string corpus file")
	}
	return strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
}

// goldenFormat is the artifact format stamp the golden digests are taken
// under. frontendDigest writes it over driver.ArtifactFormat in the
// payload's header ("ubcp" and the stamp as a uvarint), so a format bump
// alone moves no line: the golden pins what the frontend compiles each
// unit to, TestArtifactFormatBumpInvalidatesKeys and the codec's version
// check pin the stamp.
const goldenFormat = 3

// frontendDigest compiles u under m and hashes the encoded artifact, or the
// error text for a unit the frontend rejects.
func frontendDigest(u frontendUnit, m *ctypes.Model) string {
	return digest(driver.Compile(u.src, u.file, driver.Options{Model: m}))
}

// digest hashes a compile's encoded artifact, or its error text.
func digest(prog *sema.Program, err error) string {
	var out []byte
	if err == nil {
		out, err = artifact.Encode(prog)
	}
	if err == nil {
		const magic = "ubcp"
		_, n := binary.Uvarint(out[len(magic):])
		out = append(binary.AppendUvarint([]byte(magic), goldenFormat), out[len(magic)+n:]...)
	}
	if err != nil {
		out = []byte("error: " + err.Error())
	}
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}

// TestFrontendGolden pins the whole frontend — preprocessor, lexer, parser,
// sema and the artifact codec — by the sha256 of artifact.Encode of every
// suite, torture and fuzz-seed unit under LP64 and ILP32. Regenerate with
// -update only for a deliberate frontend or artifact change.
func TestFrontendGolden(t *testing.T) {
	models := []struct {
		name string
		m    *ctypes.Model
	}{{"LP64", ctypes.LP64()}, {"ILP32", ctypes.ILP32()}}
	got := map[string]string{}
	for _, u := range frontendUnits(t) {
		for _, md := range models {
			got[md.name+" "+u.id] = frontendDigest(u, md.m)
		}
	}
	if *update {
		lines := make([]string, 0, len(got))
		for id, sum := range got {
			lines = append(lines, id+" "+sum)
		}
		sort.Strings(lines)
		if err := os.WriteFile(frontendGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, units × models are %d", len(want), len(got))
	}
	for id, sum := range got {
		if w, ok := want[id]; !ok {
			t.Errorf("%s: no golden entry", id)
		} else if sum != w {
			t.Errorf("%s: artifact digest %s, golden %s", id, sum, w)
		}
	}
}

// readGolden reads the pinned digests, by "MODEL unit-id".
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(frontendGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		i := strings.LastIndexByte(sc.Text(), ' ')
		if i < 0 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[sc.Text()[:i]] = sc.Text()[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
