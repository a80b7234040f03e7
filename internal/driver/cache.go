package driver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/ctypes"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sema"
)

// Cache is a concurrency-safe compile cache with single-flight
// deduplication: concurrent callers compiling the same translation unit
// block on one frontend pass and share the resulting immutable
// *sema.Program (see the immutability contract on sema.Program).
//
// Entries are keyed by (source hash, model, defines). The source hash
// covers the file name too, since diagnostics embed it. Deterministic
// compile failures (bad C) are cached as well — within one cache lifetime
// a broken translation unit is compiled (and fails) exactly once, no
// matter how many tools ask for it. Non-deterministic failures — contained
// panics, injected transients, context cancellation — are neither cached
// nor shared with callers waiting on the same compile (fault.Group):
// either would pin a spurious error onto a translation unit that compiles
// fine on retry. Options.Includes is NOT part of the key: callers must use
// a consistent include resolver for the lifetime of a cache.
type Cache struct {
	mu sync.Mutex
	// entries holds completed deterministic results only; misses
	// single-flight through flights.
	entries map[cacheKey]cacheEntry
	flights fault.Group[cacheKey, *sema.Program]

	// Counters, guarded by mu. A lookup served another caller's result —
	// a completed entry or a shared in-flight compile — counts as a hit;
	// a lookup that runs the miss path counts as a miss. Single-flight
	// waits are the flight group's Parked count.
	hits, misses, errors int64
	evictions            int64
	compileTime          time.Duration
	// artifactHits counts misses served by decoding a stored artifact;
	// compiles counts misses that ran an actual frontend pass. Their sum
	// equals misses.
	artifactHits, compiles int64

	// artifacts, when set, is the second-level miss path: a miss consults
	// it before running the frontend, and stores successful compiles back.
	artifacts Artifacts
}

// ArtifactFormat is the compiled-program artifact format version. It is
// folded into every cache key and SourceKey, so artifacts written by a
// build with a different codec shape are never even addressed: bumping it
// invalidates every previously stored artifact at the key layer (asserted
// by TestArtifactFormatBumpInvalidatesKeys). Bump it whenever the
// sema.Program surface or the internal/artifact codec changes, or what a
// source compiles to does, as when the built-in headers began to follow
// the data model (format 2) and when sema began numbering the frame
// slots the interpreter indexes locals by (format 3).
const ArtifactFormat = 3

// artifactFormat is the stamp actually folded into keys; a variable only
// so the invalidation test can bump it and prove every key moves.
var artifactFormat uint32 = ArtifactFormat

// Artifacts is the content-addressed artifact tier consulted on cache
// misses (implemented by internal/artifact.Tier; the interface lives here
// so the artifact package can depend on driver, not the reverse).
type Artifacts interface {
	// Load returns the stored program for key if one is available locally
	// or from a peer. Implementations must never return a wrong program:
	// corrupt, torn, or version-skewed artifacts degrade to (nil, false).
	// opts carries the ArtifactPeer fetch hint.
	Load(key string, opts Options) (*sema.Program, bool)
	// Store persists a freshly compiled program under key, best effort.
	Store(key string, prog *sema.Program)
}

// SetArtifacts installs the artifact tier as the second-level miss path.
// Set it before sharing the cache across goroutines.
func (c *Cache) SetArtifacts(a Artifacts) {
	c.mu.Lock()
	c.artifacts = a
	c.mu.Unlock()
}

type cacheKey struct {
	srcHash [sha256.Size]byte
	model   ctypes.Model
	defines string
	format  uint32
}

type cacheEntry struct {
	prog *sema.Program
	err  error
}

// NewCache returns an empty compile cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]cacheEntry)}
}

// CacheStats is a snapshot of a cache's counters. It is the only way to
// read them: the live fields stay unexported behind the cache mutex, so a
// monitoring goroutine polling a cache shared with a -j worker pool is
// race-free by construction (asserted by TestCacheStatsConcurrent under
// -race). The snapshot serializes directly into /metrics responses.
type CacheStats struct {
	Hits   int64 `json:"hits"`   // lookups served from an existing (possibly in-flight) entry
	Misses int64 `json:"misses"` // lookups that triggered a frontend pass
	Errors int64 `json:"errors"` // misses whose compile failed (each failure counted once)
	// Waits counts single-flight waits: lookups that found the unit still
	// compiling and blocked on the in-flight frontend pass instead of
	// starting their own. A waiter that re-runs the compile after a
	// non-deterministic failure counts as a wait and a miss.
	Waits int64 `json:"waits"`
	// Evictions counts compile results dropped instead of cached: the
	// non-deterministic failures (transient, contained panic,
	// cancellation).
	Evictions int64 `json:"evictions"`
	// CompileTime is the total wall time spent inside actual frontend
	// passes (misses only; waiting on another caller's compile is free).
	CompileTime time.Duration `json:"compile_time_ns"`
	// ArtifactHits counts misses served by decoding a stored artifact
	// instead of running the frontend; Compiles counts misses that ran a
	// real frontend pass. ArtifactHits + Compiles == Misses.
	ArtifactHits int64 `json:"artifact_hits"`
	Compiles     int64 `json:"compiles"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Errors: c.errors, Waits: c.flights.Stats().Parked, Evictions: c.evictions, CompileTime: c.compileTime, ArtifactHits: c.artifactHits, Compiles: c.compiles}
}

// Len reports the number of cached translation units (including
// deterministic failures; in-flight compiles are not yet cached).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Compile is the caching equivalent of the package-level Compile: the
// first caller for a key runs the frontend; concurrent and later callers
// share its result.
func (c *Cache) Compile(src, file string, opts Options) (*sema.Program, error) {
	return c.CompileCtx(context.Background(), src, file, opts)
}

// CompileCtx is Compile with a trace context: when ctx carries a span
// collector (obs.WithTrace), the lookup is bracketed by a "compile" span
// annotated with the file and whether it was served from cache. The
// context does NOT cancel the compile itself — a frontend pass is shared
// by every caller waiting on the key, so it must not die with the first
// caller's request.
func (c *Cache) CompileCtx(ctx context.Context, src, file string, opts Options) (*sema.Program, error) {
	_, sp := obs.StartSpan(ctx, "compile")
	prog, err, how := c.compile(src, file, opts)
	if sp.Recording() {
		sp.SetAttr("file", file)
		sp.SetAttr("cache", how)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return prog, err
}

// compile reports how the result was obtained in its third return: "hit"
// (served another caller's result), "artifact" (miss served by the
// artifact tier), or "miss" (ran the frontend).
func (c *Cache) compile(src, file string, opts Options) (prog *sema.Program, err error, how string) {
	k := makeKey(src, file, opts)
	if e, ok := c.lookup(k); ok {
		return e.prog, e.err, "hit"
	}
	// Waiters do not stop with their caller's ctx, so every lookup ends
	// as a hit or a miss.
	how = "hit"
	prog, err, shared := c.flights.Do(context.Background(), k, func() (p *sema.Program, ferr error) {
		// A flight may have landed between the lookup above and this one.
		if e, ok := c.lookup(k); ok {
			return e.prog, e.err
		}
		p, ferr, how = c.fill(k, src, file, opts)
		return p, ferr
	})
	if shared {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	return prog, err, how
}

// lookup returns the completed entry for k, counting a hit when there is
// one. The map read and the count share one critical section: this is
// the hot path of a warm cache.
func (c *Cache) lookup(k cacheKey) (cacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return e, ok
}

// fill is the miss path: the artifact tier, then the frontend. It caches
// the result only when it is deterministic.
func (c *Cache) fill(k cacheKey, src, file string, opts Options) (prog *sema.Program, err error, how string) {
	c.mu.Lock()
	c.misses++
	arts := c.artifacts
	c.mu.Unlock()

	how = "miss"
	start := time.Now()
	if arts != nil {
		if p, ok := arts.Load(sourceKeyOf(k), opts); ok {
			prog, how = p, "artifact"
		}
	}
	if prog == nil {
		prog, err = Compile(src, file, opts)
		if err == nil && arts != nil {
			arts.Store(sourceKeyOf(k), prog)
		}
	}
	elapsed := time.Since(start)

	c.mu.Lock()
	c.compileTime += elapsed
	if how == "artifact" {
		c.artifactHits++
	} else {
		c.compiles++
	}
	if err != nil {
		c.errors++
	}
	if fault.Deterministic(err) {
		c.entries[k] = cacheEntry{prog, err}
	} else {
		c.evictions++
	}
	c.mu.Unlock()
	return prog, err, how
}

// SourceKey renders the cache identity of (src, file, opts) — the key
// under which the cache single-flights compiles — as an opaque hex string.
// Servers reuse it to coalesce whole analysis requests: two requests with
// equal SourceKeys are guaranteed to share one cached frontend pass, so
// sharing the run too is sound as long as the remaining knobs (tool,
// budget, timeout) are folded into the request key by the caller.
func SourceKey(src, file string, opts Options) string {
	return sourceKeyOf(makeKey(src, file, opts))
}

func sourceKeyOf(k cacheKey) string {
	h := sha256.New()
	h.Write(k.srcHash[:])
	fmt.Fprintf(h, "|v%d|%+v|%s", k.format, k.model, k.defines)
	return hex.EncodeToString(h.Sum(nil))
}

func makeKey(src, file string, opts Options) cacheKey {
	h := sha256.New()
	h.Write([]byte(file))
	h.Write([]byte{0})
	h.Write([]byte(src))
	var k cacheKey
	h.Sum(k.srcHash[:0])
	model := opts.Model
	if model == nil {
		model = ctypes.LP64()
	}
	k.model = *model
	k.defines = strings.Join(opts.Defines, "\x1f")
	k.format = artifactFormat
	return k
}
