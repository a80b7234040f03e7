package artifact_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	undefc "repro"
	"repro/internal/artifact"
	"repro/internal/driver"
)

const tierSrc = "int main(void) { int x = 3; return x - 3; }\n"

func tierKey(t *testing.T) string {
	t.Helper()
	return driver.SourceKey(tierSrc, "tier.c", driver.Options{})
}

func newTier(t *testing.T, cfg artifact.Config) *artifact.Tier {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	tier, err := artifact.NewTier(cfg)
	if err != nil {
		t.Fatalf("NewTier: %v", err)
	}
	return tier
}

func storeOne(t *testing.T, tier *artifact.Tier, key string) {
	t.Helper()
	prog, err := undefc.Compile(tierSrc, "tier.c", undefc.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tier.Store(key, prog)
	if st := tier.Stats(); st.Stores != 1 || st.StoreErrors != 0 {
		t.Fatalf("store stats = %+v, want 1 store, 0 errors", st)
	}
}

// artFile locates the single stored frame file under dir.
func artFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one .art file in %s, got %v (%v)", dir, matches, err)
	}
	return matches[0]
}

func TestTierDiskRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	key := tierKey(t)
	tier := newTier(t, artifact.Config{Dir: dir})
	storeOne(t, tier, key)

	prog, ok := tier.Load(key)
	if !ok || prog == nil {
		t.Fatal("disk load missed a freshly stored artifact")
	}
	if st := tier.Stats(); st.DiskHits != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}

	// A new tier on the same dir is the SIGKILL+restart scenario: the
	// frame survives and the first Load decodes instead of recompiling.
	revived := newTier(t, artifact.Config{Dir: dir})
	if _, ok := revived.Load(key); !ok {
		t.Fatal("restarted tier missed the persisted artifact")
	}
	if st := revived.Stats(); st.DiskHits != 1 || st.DiskEntries != 1 {
		t.Fatalf("restarted stats = %+v, want the scanned entry hit once", st)
	}
}

func TestTierTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	key := tierKey(t)
	tier := newTier(t, artifact.Config{Dir: dir})
	storeOne(t, tier, key)

	path := artFile(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, ok := tier.Load(key); ok {
		t.Fatal("truncated artifact loaded as valid")
	}
	st := tier.Stats()
	if st.Corrupt == 0 {
		t.Fatalf("stats = %+v, want corrupt counted", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt frame was not deleted on sight")
	}
}

func TestTierBadChecksum(t *testing.T) {
	dir := t.TempDir()
	key := tierKey(t)
	tier := newTier(t, artifact.Config{Dir: dir})
	storeOne(t, tier, key)

	path := artFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a payload byte; checksum no longer matches
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := tier.Load(key); ok {
		t.Fatal("checksum-corrupt artifact loaded as valid")
	}
	if st := tier.Stats(); st.Corrupt == 0 {
		t.Fatalf("stats = %+v, want corrupt counted", st)
	}
}

func TestTierPeerSweepWriteThrough(t *testing.T) {
	key := tierKey(t)
	source := newTier(t, artifact.Config{Dir: t.TempDir()})
	storeOne(t, source, key)

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := strings.TrimPrefix(r.URL.Path, "/v1/artifact/")
		frame, err := source.ServeFrame(k)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Write(frame)
	}))
	defer srv.Close()

	// The sweep meets a dead address first and must go on to the live
	// peer behind it.
	cold := newTier(t, artifact.Config{Dir: t.TempDir(), Peers: []string{"127.0.0.1:1", srv.URL}})
	prog, ok := cold.Load(key)
	if !ok || prog == nil {
		t.Fatal("peer sweep past a dead peer failed")
	}
	st := cold.Stats()
	if st.PeerHits != 1 || st.PeerErrors != 1 || st.BytesFetched == 0 {
		t.Fatalf("stats = %+v, want 1 peer hit with bytes after 1 failed try", st)
	}
	if st.Stores != 1 {
		t.Fatalf("stats = %+v, want fetched frame written through to disk", st)
	}
	if sst := source.Stats(); sst.Served != 1 || sst.BytesServed == 0 {
		t.Fatalf("source stats = %+v, want 1 served frame", sst)
	}
	// Second load is a pure local disk hit — no peer involved.
	if _, ok := cold.Load(key); !ok {
		t.Fatal("write-through frame not readable locally")
	}
	if st := cold.Stats(); st.DiskHits != 1 || st.PeerHits != 1 {
		t.Fatalf("stats = %+v, want the repeat load served from disk", st)
	}
}

func TestTierPeerSweepFallback(t *testing.T) {
	key := tierKey(t)
	source := newTier(t, artifact.Config{Dir: t.TempDir()})
	storeOne(t, source, key)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		frame, err := source.ServeFrame(strings.TrimPrefix(r.URL.Path, "/v1/artifact/"))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Write(frame)
	}))
	defer srv.Close()

	// No hint: the peer list alone must find the artifact.
	cold := newTier(t, artifact.Config{Dir: t.TempDir(), Peers: []string{srv.URL}})
	if _, ok := cold.Load(key); !ok {
		t.Fatal("peer sweep failed")
	}
	if st := cold.Stats(); st.PeerHits != 1 {
		t.Fatalf("stats = %+v, want 1 peer hit", st)
	}
}

func TestTierMidFetchPeerDeath(t *testing.T) {
	key := tierKey(t)
	// The peer advertises a full frame but dies halfway through the body.
	died := make(chan struct{}, 4)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("no hijacker")
			return
		}
		conn, buf, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		body := make([]byte, 4096)
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(body)*2)
		buf.Write(body)
		buf.Flush()
		conn.Close()
		died <- struct{}{}
	}))
	defer srv.Close()

	cold := newTier(t, artifact.Config{Dir: t.TempDir(), Peers: []string{srv.URL}})
	prog, ok := cold.Load(key)
	if ok || prog != nil {
		t.Fatal("torn peer fetch returned a program")
	}
	<-died
	st := cold.Stats()
	if st.PeerErrors == 0 {
		t.Fatalf("stats = %+v, want the torn fetch counted as a peer error", st)
	}
	if st.PeerHits != 0 || st.Stores != 0 {
		t.Fatalf("stats = %+v, want nothing stored from a torn fetch", st)
	}
}

func TestTierPeerServesGarbage(t *testing.T) {
	key := tierKey(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("this is not an artifact frame"))
	}))
	defer srv.Close()
	cold := newTier(t, artifact.Config{Dir: t.TempDir(), Peers: []string{srv.URL}})
	if _, ok := cold.Load(key); ok {
		t.Fatal("garbage peer response accepted")
	}
	if st := cold.Stats(); st.PeerErrors == 0 {
		t.Fatalf("stats = %+v, want garbage counted as peer error", st)
	}
}

func TestStoreLRUGC(t *testing.T) {
	dir := t.TempDir()
	// Cap the store below what several artifacts need so eviction must run.
	prog, err := undefc.Compile(tierSrc, "tier.c", undefc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := artifact.Encode(prog)
	if err != nil {
		t.Fatal(err)
	}
	frameSize := int64(len(one) + 64)
	tier := newTier(t, artifact.Config{Dir: dir, MaxBytes: 3 * frameSize})
	keys := make([]string, 6)
	for i := range keys {
		src := fmt.Sprintf("int main(void) { return %d - %d; }\n", i, i)
		keys[i] = driver.SourceKey(src, "gc.c", driver.Options{})
		p, err := undefc.Compile(src, "gc.c", undefc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tier.Store(keys[i], p)
	}
	st := tier.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions under a %d-byte cap", st, 3*frameSize)
	}
	if st.DiskBytes > 3*frameSize {
		t.Fatalf("stats = %+v, store exceeds its byte cap", st)
	}
	// The most recent key must have survived; the oldest must be gone.
	if _, ok := tier.Load(keys[len(keys)-1]); !ok {
		t.Error("most recently stored artifact was evicted")
	}
	if _, ok := tier.Load(keys[0]); ok {
		t.Error("oldest artifact survived a full-cap sweep")
	}
}

// TestCacheArtifactMissPath wires a Tier under driver.Cache and checks the
// second-level miss path end to end: first cache compiles and stores, a
// fresh cache (new process, same artifact dir) loads instead of compiling.
func TestCacheArtifactMissPath(t *testing.T) {
	dir := t.TempDir()
	tier := newTier(t, artifact.Config{Dir: dir})

	warm := driver.NewCache()
	warm.SetArtifacts(tier)
	p1, err := warm.Compile(tierSrc, "tier.c", driver.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if st := warm.Stats(); st.Misses != 1 || st.Compiles != 1 || st.ArtifactHits != 0 {
		t.Fatalf("warm stats = %+v, want 1 miss compiled", st)
	}

	cold := driver.NewCache()
	cold.SetArtifacts(newTier(t, artifact.Config{Dir: dir}))
	p2, err := cold.Compile(tierSrc, "tier.c", driver.Options{})
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	st := cold.Stats()
	if st.Misses != 1 || st.ArtifactHits != 1 || st.Compiles != 0 {
		t.Fatalf("cold stats = %+v, want the miss served by the artifact tier", st)
	}
	if p1.File != p2.File || len(p1.Funcs) != len(p2.Funcs) {
		t.Fatal("artifact-served program does not match the compiled one")
	}
}
