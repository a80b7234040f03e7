// Package vm executes checked C programs through pre-compiled closure
// code instead of per-step AST re-dispatch.
//
// The tree walker (internal/interp) re-performs node-kind dispatch,
// literal wrapping, sizeof computation, and goto/switch subtree scans on
// every visit of every node. This package performs that work once per
// program: Compile lowers each function body to a tree of pre-resolved
// closures that call the same exported interp helpers, in the same
// order, as the tree walker does. Verdicts, observer event sequences,
// scheduler Pick sequences, and budget accounting are therefore
// byte-identical by construction — the fidelity argument is structural,
// and the differential tests in this package hold it to that claim.
//
// Compiled code is immutable and position-independent with respect to
// interpreter state: a single *Code is shared by any number of
// concurrent *interp.Interp instances (one program may run under four
// tool profiles at once). The UB-check profile is read from the
// interpreter at run time, never baked in.
//
// The package registers itself as the "vm" engine; select it with
// interp.Options{Engine: "vm"}. It is a test and probe engine: no
// binary links it, so only importers (its differential tests and the
// benchmark's layer probe) can select it.
package vm

import (
	"container/list"
	"sync"

	"repro/internal/cast"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/sema"
	"repro/internal/token"
)

func init() {
	interp.RegisterEngine("vm", Run)
}

// Run is the "vm" engine: it compiles (or fetches from the cache) the
// program's closure code and executes main through it. Startup — global
// allocation and initializer plans — runs through the shared
// engine-independent path, so the event stream preceding main is
// identical across engines by construction.
func Run(in *interp.Interp) (int, error) {
	code := codeFor(in.Program())
	return in.ExecuteWith(func(fd *cast.FuncDef, args []mem.Value, pos token.Pos) (mem.Value, error) {
		return code.call(in, fd, args, pos)
	})
}

// cfunc is one compiled function.
type cfunc struct {
	fd   *cast.FuncDef
	body *cstmt
}

// Code is a program's compiled closure code. It holds no interpreter
// state and is safe for concurrent use by any number of executions.
type Code struct {
	prog  *sema.Program
	funcs map[*cast.FuncDef]*cfunc
}

// Compile lowers every function of prog. It never fails: constructs the
// compiler does not know become closures that produce the tree walker's
// "Unhandled ..." diagnosis when (and only when) they are reached.
func Compile(prog *sema.Program) *Code {
	code := &Code{prog: prog, funcs: make(map[*cast.FuncDef]*cfunc, len(prog.Funcs))}
	c := &compiler{prog: prog, model: prog.Model, code: code}
	for _, fd := range prog.Funcs {
		code.funcs[fd] = c.compileFunc(fd)
	}
	return code
}

// call invokes a user-defined function through its compiled body, using
// the same call protocol (depth budget, frame push, parameter objects,
// control-signal mapping) as the tree walker.
func (code *Code) call(in *interp.Interp, fd *cast.FuncDef, args []mem.Value, pos token.Pos) (mem.Value, error) {
	cf := code.funcs[fd]
	if cf == nil {
		// A definition the compiler has not seen — possible only if the
		// program was mutated after compilation, which the driver's
		// interning contract forbids. Compile it on the fly rather than
		// diverge.
		c := &compiler{prog: code.prog, model: code.prog.Model, code: code}
		cf = c.compileFunc(fd)
		// Note: not stored back; Code is immutable after Compile so that
		// concurrent executions need no lock on the hot path.
	}
	return in.InvokeUser(fd, args, pos, func() (interp.Ctrl, error) {
		return cf.body.run(in)
	})
}

// ---------- compiled-code cache ----------

// The driver interns compiled programs (driver.Cache returns the same
// *sema.Program pointer for the same preprocessed source and model), so
// the program pointer is a sound cache key: same pointer, same AST, same
// code. The cache is LRU-bounded and single-flight — concurrent first
// requests for one program compile it exactly once.

// CacheCap bounds the number of compiled programs kept. At well under a
// megabyte per typical suite program, 256 comfortably covers the full
// Figure-2 matrix plus a busy analysis-service working set.
const CacheCap = 256

type cacheEntry struct {
	prog *sema.Program
	once sync.Once
	code *Code
}

var codeCache = struct {
	sync.Mutex
	entries map[*sema.Program]*list.Element
	lru     *list.List // front = most recently used
	hits    uint64
	misses  uint64
	evicted uint64
}{
	entries: make(map[*sema.Program]*list.Element),
	lru:     list.New(),
}

// codeFor returns the compiled code for prog, compiling at most once per
// cached program. Safe for concurrent use.
func codeFor(prog *sema.Program) *Code {
	codeCache.Lock()
	ent := lockedLookup(prog)
	codeCache.Unlock()
	// Compilation runs outside the cache lock: a large program must not
	// stall unrelated lookups. once makes concurrent first calls collapse
	// into a single compile.
	ent.once.Do(func() { ent.code = Compile(prog) })
	return ent.code
}

func lockedLookup(prog *sema.Program) *cacheEntry {
	if el, ok := codeCache.entries[prog]; ok {
		codeCache.lru.MoveToFront(el)
		codeCache.hits++
		return el.Value.(*cacheEntry)
	}
	codeCache.misses++
	ent := &cacheEntry{prog: prog}
	codeCache.entries[prog] = codeCache.lru.PushFront(ent)
	for codeCache.lru.Len() > CacheCap {
		back := codeCache.lru.Back()
		delete(codeCache.entries, back.Value.(*cacheEntry).prog)
		codeCache.lru.Remove(back)
		codeCache.evicted++
	}
	return ent
}

// CacheStats is a snapshot of the compiled-code cache counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
}

// Stats reports the compiled-code cache counters.
func Stats() CacheStats {
	codeCache.Lock()
	defer codeCache.Unlock()
	return CacheStats{
		Hits:      codeCache.hits,
		Misses:    codeCache.misses,
		Evictions: codeCache.evicted,
		Size:      codeCache.lru.Len(),
	}
}

// ResetStats zeroes the cache counters (tests and benchmarks).
func ResetStats() {
	codeCache.Lock()
	codeCache.hits, codeCache.misses, codeCache.evicted = 0, 0, 0
	codeCache.Unlock()
}
