package driver

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestCompileContainsPanic(t *testing.T) {
	in := fault.NewInjector(0, fault.Rule{Site: SiteCompile, Kind: fault.KindPanic, Msg: "frontend blew up"})
	_, err := Compile(cacheTestSrc, "t.c", Options{Injector: in})
	ie, ok := fault.AsInternal(err)
	if !ok {
		t.Fatalf("err = %v, want contained InternalError", err)
	}
	if ie.Stage != fault.StageCompile || ie.Unit != "t.c" {
		t.Errorf("fault = %+v, want stage compile, unit t.c", ie)
	}
	if !strings.Contains(ie.Value, "frontend blew up") || ie.Stack == "" {
		t.Errorf("fault did not capture panic value and stack: %+v", ie)
	}
}

func TestCacheDoesNotCacheNondeterministicErrors(t *testing.T) {
	// One transient error, then clean compiles: the failure must not stick.
	in := fault.NewInjector(0, fault.Rule{Site: SiteCompile, Kind: fault.KindTransient, Count: 1})
	c := NewCache()
	opts := Options{Injector: in}
	if _, err := c.Compile(cacheTestSrc, "t.c", opts); !fault.IsTransient(err) {
		t.Fatalf("first compile err = %v, want transient", err)
	}
	prog, err := c.Compile(cacheTestSrc, "t.c", opts)
	if err != nil || prog == nil {
		t.Fatalf("compile after transient failure: %v (error was cached)", err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Evictions != 1 {
		t.Errorf("stats = %d misses / %d evictions, want 2/1", st.Misses, st.Evictions)
	}

	// Contained panics must not stick either.
	in2 := fault.NewInjector(0, fault.Rule{Site: SiteCompile, Kind: fault.KindPanic, Count: 1})
	c2 := NewCache()
	opts2 := Options{Injector: in2}
	if _, err := c2.Compile(cacheTestSrc, "t.c", opts2); err == nil {
		t.Fatal("injected panic produced no error")
	}
	if _, err := c2.Compile(cacheTestSrc, "t.c", opts2); err != nil {
		t.Fatalf("compile after contained panic: %v (fault was cached)", err)
	}
}
