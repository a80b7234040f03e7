package cpp_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cheaders"
	"repro/internal/cpp"
	"repro/internal/suite"
)

var update = flag.Bool("update", false, "rewrite testdata/cpp_output.golden from the current preprocessor")

const goldenPath = "testdata/cpp_output.golden"

// goldenInput is one translation unit whose preprocessed text is pinned.
type goldenInput struct {
	id, src, file string
}

// goldenInputs lists every pinned unit: the Juliet and own suites (the
// units behind Figures 2 and 3), the torture programs, and the FuzzCPP
// seeds and corpus.
func goldenInputs(t testing.TB) []goldenInput {
	t.Helper()
	var ins []goldenInput
	for _, s := range []*suite.Suite{suite.Juliet(), suite.Own()} {
		for _, c := range s.Cases {
			ins = append(ins, goldenInput{s.Name + "/" + c.Name, c.Source, c.Name + ".c"})
		}
	}
	for _, c := range suite.Torture() {
		ins = append(ins, goldenInput{"torture/" + c.Name, c.Source, c.Name + ".c"})
	}
	for i, s := range fuzzSeeds {
		ins = append(ins, goldenInput{"fuzz/seed#" + strconv.Itoa(i), s, "fuzz.c"})
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCPP")
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
		ins = append(ins, goldenInput{"fuzz/corpus/" + e.Name(), src, "fuzz.c"})
	}
	return ins
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

// preprocessDigest runs in through a fresh LP64 preprocessor with the
// resolver chain driver.Compile builds, and hashes the output (or the
// error text, so failing inputs are pinned too).
func preprocessDigest(in goldenInput) string {
	pp := cpp.New(cpp.ChainResolver{cheaders.Resolver(), cpp.FSResolver{}})
	out, err := pp.Run(in.src, in.file)
	if err != nil {
		out = "error: " + err.Error()
	}
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

func readGolden(t testing.TB) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCPPOutputGolden pins the LP64 preprocessed text of every suite,
// torture and fuzz input by its sha256. Regenerate with -update only for a
// deliberate output change.
func TestCPPOutputGolden(t *testing.T) {
	ins := goldenInputs(t)
	if *update {
		lines := make([]string, 0, len(ins))
		for _, in := range ins {
			lines = append(lines, in.id+" "+preprocessDigest(in))
		}
		sort.Strings(lines)
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(ins) {
		t.Errorf("golden has %d entries, inputs are %d", len(want), len(ins))
	}
	for _, in := range ins {
		w, ok := want[in.id]
		if !ok {
			t.Errorf("%s: no golden entry", in.id)
			continue
		}
		if got := preprocessDigest(in); got != w {
			t.Errorf("%s: output digest %s, golden %s", in.id, got, w)
		}
	}
}

// TestCPPConcurrentGolden preprocesses every pinned input on 8 goroutines
// at once, each starting at a different input, and checks every result
// against the golden. The preprocessors share the scanned built-in headers
// and the predefined macro table; run it under -race.
func TestCPPConcurrentGolden(t *testing.T) {
	ins := goldenInputs(t)
	want := readGolden(t)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ins {
				in := ins[(i+w*len(ins)/workers)%len(ins)]
				if got := preprocessDigest(in); got != want[in.id] {
					errs <- fmt.Sprintf("worker %d, %s: digest %s, golden %s", w, in.id, got, want[in.id])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
