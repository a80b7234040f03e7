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
	var out []byte
	prog, err := driver.Compile(u.src, u.file, driver.Options{Model: m})
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
