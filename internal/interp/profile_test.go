package interp_test

import (
	"testing"

	undefc "repro"
	"repro/internal/interp"
)

// runProfile executes src under a specific detection profile.
func runProfile(t *testing.T, src string, prof *interp.Profile) undefc.Result {
	t.Helper()
	return undefc.RunSource(src, "prof.c", undefc.Options{
		Exec: interp.Options{Profile: prof},
	})
}

// TestFallbackWrapping: with overflow checking off, signed arithmetic wraps
// exactly like the hardware (two's complement).
func TestFallbackWrapping(t *testing.T) {
	src := `
#include <limits.h>
int main(void) {
	int x = INT_MAX;
	int y = x + 1;          /* wraps to INT_MIN */
	return y == INT_MIN ? 42 : 1;
}
`
	res := runProfile(t, src, interp.MemcheckProfile())
	if res.UB != nil || res.Err != nil || res.ExitCode != 42 {
		t.Errorf("wrap fallback: ub=%v err=%v exit=%d", res.UB, res.Err, res.ExitCode)
	}
}

// TestFallbackShiftMasking: the x86 shifter masks the count to width-1,
// whatever the count's signedness (gcc -O0 prints 2 for both rows).
func TestFallbackShiftMasking(t *testing.T) {
	for _, count := range []string{
		"int n = 33;",      /* masked to 1 */
		"unsigned n = 33;", /* masked to 1, not clamped to 32 first */
	} {
		src := "int main(void) {\n\t" + count + "\n\tunsigned x = 1, r = x << n;\n\treturn r == 2u ? 42 : 1;\n}\n"
		for _, prof := range []*interp.Profile{interp.MemcheckProfile(), interp.CheckPointerProfile()} {
			res := runProfile(t, src, prof)
			if res.UB != nil || res.Err != nil || res.ExitCode != 42 {
				t.Errorf("%s %s: ub=%v err=%v exit=%d", prof.Name, count, res.UB, res.Err, res.ExitCode)
			}
		}
	}
}

// TestFallbackDivCrash: with the check off, division by zero is a SIGFPE
// crash, never a verdict.
func TestFallbackDivCrash(t *testing.T) {
	res := runProfile(t, "int main(void){ int z = 0; return 1 / z; }",
		interp.MemcheckProfile())
	if res.UB != nil {
		t.Errorf("crash must not be a UB verdict: %v", res.UB)
	}
	if _, ok := res.Err.(*interp.CrashError); !ok {
		t.Errorf("expected CrashError, got %v", res.Err)
	}
}

// TestFallbackStackNeighborhood: unchecked stack out-of-bounds reads see
// zeroed neighbor bytes; writes vanish.
func TestFallbackStackNeighborhood(t *testing.T) {
	src := `
int main(void) {
	int a[2] = {1, 2};
	a[5] = 99;              /* vanishes */
	return a[0] + a[1] + a[7]; /* 1 + 2 + 0 */
}
`
	res := runProfile(t, src, interp.MemcheckProfile())
	if res.UB != nil || res.Err != nil || res.ExitCode != 3 {
		t.Errorf("stack fallback: ub=%v err=%v exit=%d", res.UB, res.Err, res.ExitCode)
	}
}

// TestFallbackPointerCompare: with PtrCompare off, unrelated pointers
// compare via their synthetic addresses — a stable total order.
func TestFallbackPointerCompare(t *testing.T) {
	src := `
int main(void) {
	int a, b;
	a = b = 0;
	int lt = &a < &b;
	int gt = &a > &b;
	return (lt ^ gt) == 1 ? 42 : 1; /* exactly one holds */
}
`
	res := runProfile(t, src, interp.MemcheckProfile())
	if res.UB != nil || res.Err != nil || res.ExitCode != 42 {
		t.Errorf("compare fallback: ub=%v err=%v exit=%d", res.UB, res.Err, res.ExitCode)
	}
}

// TestFallbackConstWrite: const objects live in writable memory when the
// check is off.
func TestFallbackConstWrite(t *testing.T) {
	src := `
int main(void) {
	const int c = 1;
	*(int*)&c = 2;
	return c + 40; /* the memory really changed */
}
`
	res := runProfile(t, src, interp.MemcheckProfile())
	if res.UB != nil || res.Err != nil || res.ExitCode != 42 {
		t.Errorf("const fallback: ub=%v err=%v exit=%d", res.UB, res.Err, res.ExitCode)
	}
}

// TestFallbackNoReturnZero: using the missing return value yields register
// garbage (zero here), not a verdict, when NoReturn is off.
func TestFallbackNoReturnZero(t *testing.T) {
	src := `
static int nothing(int x) { if (x > 100) return 7; }
int main(void) { return nothing(1) + 42; }
`
	res := runProfile(t, src, interp.MemcheckProfile())
	if res.UB != nil || res.Err != nil || res.ExitCode != 42 {
		t.Errorf("no-return fallback: ub=%v err=%v exit=%d", res.UB, res.Err, res.ExitCode)
	}
}

// TestProfilesAgreeOnDefined: every profile runs a defined program to the
// same answer — reduced checking never changes correct behavior.
func TestProfilesAgreeOnDefined(t *testing.T) {
	src := `
#include <string.h>
int main(void) {
	char buf[16];
	strcpy(buf, "answer");
	int sum = 0;
	for (int i = 0; buf[i]; i++) sum += buf[i] != 0;
	return sum * 7; /* 6 letters * 7 = 42 */
}
`
	profiles := []*interp.Profile{
		interp.KCCProfile(), interp.MemcheckProfile(),
		interp.CheckPointerProfile(), interp.ValueAnalysisProfile(),
	}
	for _, prof := range profiles {
		res := runProfile(t, src, prof)
		if res.UB != nil || res.Err != nil || res.ExitCode != 42 {
			t.Errorf("%s: ub=%v err=%v exit=%d", prof.Name, res.UB, res.Err, res.ExitCode)
		}
	}
}
