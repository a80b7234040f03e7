package interp_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	undefc "repro"
	"repro/internal/interp"
	_ "repro/internal/vm" // registers the "vm" engine
)

var updateValidity = flag.Bool("update", false, "rewrite testdata/validity.golden")

// validityDefects are the pointer states of §4.1's side conditions. Each
// sets up p, of type T, before the use runs; probe reads back where a
// store through p went (the in-bounds neighbor for an overrun).
var validityDefects = []struct {
	name, decls, setup, probe string
}{
	{"null", "typedef int T;", "T *p = 0;", "*p"},
	{"forged", "typedef int T;", "T *p = (T *)16;", "*p"},
	{"freed", "typedef int T;", "T *p = malloc(sizeof(T)); *p = 5; free(p);", "*p"},
	{"dead_block", "typedef int T;", "T *p; { T x = 5; p = &x; }", "*p"},
	{"dead_return", "typedef int T; static T *escape(void) { T x = 5; return &x; }", "T *p = escape();", "*p"},
	{"heap_overrun", "typedef int T;", "char *h = malloc(6); h[4] = 1; T *p = (T *)(h + 4);", "h[4]"},
	{"stack_overrun", "typedef int T;", "char b[6] = {0}; b[4] = 1; T *p = (T *)(b + 4);", "b[4]"},
	{"one_past", "typedef int T;", "T a[2] = {1, 2}; T *p = a + 2;", "a[1]"},
	{"string_lit", "typedef char T;", `T *p = "abc";`, "p[0]"},
	{"const", "typedef int T;", "static const T c = 5; T *p = (T *)&c;", "c"},
}

// validityUses are the operations that consult pointer validity: lvalue
// loads and stores, library regions, and pointer values.
var validityUses = []struct{ name, body string }{
	{"load", `printf("%d\n", (int)*p);`},
	{"store", `*p = 7; printf("%d\n", (int)(PROBE));`},
	{"memcpy_src", `char d[8] = {0}; memcpy(d, p, sizeof *p); printf("%d\n", d[0]);`},
	{"memcpy_dst", `char s[8] = {7, 7, 7, 7, 7, 7, 7, 7}; memcpy(p, s, sizeof *p); printf("%d\n", (int)(PROBE));`},
	{"strlen", `printf("%d\n", (int)strlen((char *)p));`},
	{"eq", `static T other; printf("%d\n", p == &other);`},
	{"sub", `printf("%d\n", (int)(p - p));`},
	{"add", `T *r = p + 1; (void)r; printf("ok\n");`},
	{"cond", `if (p) printf("t\n"); else printf("f\n");`},
	{"deref_void", `void *v = p; *v; printf("ok\n");`},
}

// TestPointerValidityTable runs every use of a pointer against every
// defect of §4.1's side conditions under kcc, memcheck and a profile that
// arms no gate, and pins each outcome in testdata/validity.golden: the
// behavior code and message of a report, or the fallback's crash signal
// or printed value (a store that vanished prints the probe unchanged).
// The bytecode VM must give the tree walker's outcome in every cell.
func TestPointerValidityTable(t *testing.T) {
	profiles := []*interp.Profile{interp.KCCProfile(), interp.MemcheckProfile(), {Name: "none"}}
	var b strings.Builder
	for _, u := range validityUses {
		for _, d := range validityDefects {
			src := fmt.Sprintf("#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n%s\nint main(void) {\n\t%s\n\t%s\n\treturn 0;\n}\n",
				d.decls, d.setup, strings.ReplaceAll(u.body, "PROBE", d.probe))
			for _, prof := range profiles {
				got := validityOutcome(undefc.RunSource(src, "v.c", undefc.Options{
					Exec: interp.Options{Profile: prof}}))
				vm := validityOutcome(undefc.RunSource(src, "v.c", undefc.Options{
					Exec: interp.Options{Profile: prof, Engine: "vm"}}))
				if vm != got {
					t.Errorf("%s %s %s: vm %s, tree walker %s", u.name, d.name, prof.Name, vm, got)
				}
				fmt.Fprintf(&b, "%-10s %-13s %-8s %s\n", u.name, d.name, prof.Name, got)
			}
		}
	}
	path := filepath.Join("testdata", "validity.golden")
	if *updateValidity {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d rows, golden has %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("got  %s\nwant %s", gl[i], wl[i])
		}
	}
}

// validityOutcome renders a run's result as one golden cell.
func validityOutcome(res undefc.Result) string {
	var crash *interp.CrashError
	switch {
	case res.UB != nil:
		return fmt.Sprintf("UB %05d %s", res.UB.Behavior.Code, res.UB.Msg)
	case errors.As(res.Err, &crash):
		return fmt.Sprintf("%s %s", crash.Signal, crash.Detail)
	case res.Err != nil:
		return "error " + res.Err.Error()
	}
	return fmt.Sprintf("exit %d out %q", res.ExitCode, strings.TrimSuffix(res.Output, "\n"))
}
