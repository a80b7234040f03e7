package cluster

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// SiteProbe fires before every health probe; the unit is the shard
// address. An injected error is indistinguishable from a failed probe, so
// a chaos spec like 'cluster.probe=error%0.05' exercises the breaker's
// probe path without touching the network.
var SiteProbe = fault.RegisterSite("cluster.probe")

// SiteForward fires before every forward attempt; the unit is the shard
// address. An injected error fails the attempt before any bytes reach the
// shard — the safe kind of failure to retry, which is exactly what the
// failover gate injects ('cluster.forward=error%0.01').
var SiteForward = fault.RegisterSite("cluster.forward")

// shard is the router's view of one undefd process: its address, its
// breaker, and the health signals the prober and the forward path feed.
type shard struct {
	addr    string
	breaker *Breaker

	// draining is set when the shard answers /readyz (or a forward) with
	// 503 draining — the shard is alive but leaving; it gets no traffic
	// and no breaker penalty.
	draining atomic.Bool
	// cold is set when /readyz answers 503 cold (compile cache not yet
	// warm): alive, registered, but not yet serving.
	cold atomic.Bool
	// instance is the shard process's boot identity (X-Undefc-Instance),
	// refreshed by every probe and forward response. A change means the
	// process restarted and its counters reset.
	instance atomic.Value // string

	probes     atomic.Int64
	probeFails atomic.Int64
	forwards   atomic.Int64
	errors     atomic.Int64
	latEWMA    atomic.Int64 // ns, forward latency, α = 1/8
}

func newShard(addr string, b *Breaker) *shard {
	s := &shard{addr: addr, breaker: b}
	s.instance.Store("")
	return s
}

// available reports whether the router may send this shard a request now:
// not draining, not cold, and admitted by the breaker.
func (s *shard) available(now time.Time) bool {
	return !s.draining.Load() && !s.cold.Load() && s.breaker.Allow(now)
}

// observeLatency folds one forward round-trip into the passive latency
// EWMA (racy lost updates are acceptable for a health signal).
func (s *shard) observeLatency(d time.Duration) {
	old := s.latEWMA.Load()
	s.latEWMA.Store(old + (d.Nanoseconds()-old)/8)
}

func (s *shard) setInstance(inst string) {
	if inst != "" {
		s.instance.Store(inst)
	}
}

func (s *shard) instanceID() string {
	v, _ := s.instance.Load().(string)
	return v
}

// prober drives the active half of the health model: every interval it
// GETs each shard's /readyz and feeds the result into the shard's breaker
// and drain/cold flags. Probe success is also the recovery path — it is
// what moves an open breaker to half-open and a half-open one to closed,
// so a restarted shard rejoins the ring within ~2 probe intervals even if
// no request happens to trial it.
type prober struct {
	shards   []*shard
	interval time.Duration
	client   *http.Client
	injector *fault.Injector

	stop chan struct{}
	done sync.WaitGroup
}

func newProber(shards []*shard, interval time.Duration, injector *fault.Injector) *prober {
	return &prober{
		shards:   shards,
		interval: interval,
		client:   &http.Client{Timeout: interval},
		injector: injector,
		stop:     make(chan struct{}),
	}
}

// start launches one probe loop per shard (so one hung shard cannot delay
// the others' probes). probeAll is called once synchronously first, so a
// router that has just started knows its shards' states before serving.
func (p *prober) start() {
	p.probeAll()
	for _, s := range p.shards {
		s := s
		p.done.Add(1)
		go func() {
			defer p.done.Done()
			t := time.NewTicker(p.interval)
			defer t.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-t.C:
					p.probe(s)
				}
			}
		}()
	}
}

func (p *prober) halt() {
	close(p.stop)
	p.done.Wait()
}

func (p *prober) probeAll() {
	var wg sync.WaitGroup
	for _, s := range p.shards {
		s := s
		wg.Add(1)
		go func() { defer wg.Done(); p.probe(s) }()
	}
	wg.Wait()
}

// probe performs one /readyz round-trip and classifies the answer:
//
//	200            ready: breaker success, drain/cold flags clear
//	503 draining   alive but leaving: out of rotation, no breaker penalty
//	503 cold       alive but cache-cold: out of rotation, no penalty
//	anything else  down: breaker failure
func (p *prober) probe(s *shard) {
	s.probes.Add(1)
	now := time.Now()
	if err := p.injector.Fire(SiteProbe, s.addr); err != nil {
		s.probeFails.Add(1)
		s.breaker.Failure(now)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+"/readyz", nil)
	if err != nil {
		s.probeFails.Add(1)
		s.breaker.Failure(now)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		s.probeFails.Add(1)
		s.breaker.Failure(now)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	s.setInstance(resp.Header.Get("X-Undefc-Instance"))
	switch {
	case resp.StatusCode == http.StatusOK:
		s.draining.Store(false)
		s.cold.Store(false)
		s.breaker.Success(now)
	case resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body), "draining"):
		s.draining.Store(true)
	case resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body), "cold"):
		s.cold.Store(true)
	default:
		s.probeFails.Add(1)
		s.breaker.Failure(now)
	}
}
