package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// TestDaemonSmoke boots the daemon on a free port, performs one analyze
// round-trip, then delivers SIGTERM and asserts a clean drain: exit code
// 0 and /healthz flipped to draining semantics on the way down. This is
// the whole daemon lifecycle in one test — what `make check` runs.
func TestDaemonSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var mu sync.Mutex // run writes the buffers; the test reads them after done
	go func() {
		mu.Lock()
		defer mu.Unlock()
		done <- run([]string{"-addr", "127.0.0.1:0", "-drain", "5s"}, &stdout, &stderr, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}
	url := "http://" + addr

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	body, _ := json.Marshal(server.AnalyzeRequest{
		Source: "int main(void) { int x; return x; }",
		File:   "smoke.c",
	})
	resp, err = http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var ar server.AnalyzeResponse
	err = json.NewDecoder(resp.Body).Decode(&ar)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("analyze decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || ar.Schema != server.APISchema {
		t.Fatalf("analyze = %d %q, want 200 %q", resp.StatusCode, ar.Schema, server.APISchema)
	}
	if ar.Result.Verdict.String() != "flagged" {
		t.Errorf("verdict = %v, want flagged (uninitialized read)", ar.Result.Verdict)
	}

	// The daemon registered its signal handler before ready fired, so this
	// SIGTERM reaches run's Notify channel, not the default handler.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var code int
	select {
	case code = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never drained after SIGTERM")
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, stderr.String())
	}
	mu.Lock()
	out := stdout.String()
	mu.Unlock()
	for _, want := range []string{"listening on " + addr, "draining", "drained clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestRouterSmoke boots one shard daemon and one router daemon over it,
// performs an analyze round-trip through the router, checks the shard
// attribution headers and the router's delivered counter, then SIGTERMs
// both and asserts clean drains. The signal fans out to every Notify
// channel in this process, so one kill drains shard and router together.
func TestRouterSmoke(t *testing.T) {
	var shardOut, shardErr, rtOut, rtErr bytes.Buffer
	shardReady := make(chan string, 1)
	shardDone := make(chan int, 1)
	var shardMu sync.Mutex
	go func() {
		shardMu.Lock()
		defer shardMu.Unlock()
		shardDone <- run([]string{"-addr", "127.0.0.1:0", "-shard-id", "s0", "-drain", "5s"},
			&shardOut, &shardErr, shardReady)
	}()
	var shardAddr string
	select {
	case shardAddr = <-shardReady:
	case <-time.After(10 * time.Second):
		t.Fatal("shard never came up")
	}

	rtReady := make(chan string, 1)
	rtDone := make(chan int, 1)
	var rtMu sync.Mutex
	go func() {
		rtMu.Lock()
		defer rtMu.Unlock()
		rtDone <- run([]string{"-addr", "127.0.0.1:0", "-router", "-shards", shardAddr,
			"-probe-interval", "50ms", "-drain", "5s"}, &rtOut, &rtErr, rtReady)
	}()
	var rtAddr string
	select {
	case rtAddr = <-rtReady:
	case <-time.After(10 * time.Second):
		t.Fatal("router never came up")
	}
	url := "http://" + rtAddr

	// The shard warms its compile cache asynchronously; route only once
	// the router reports it ready.
	readyBy := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(readyBy) {
			t.Fatal("router never saw the shard ready")
		}
		time.Sleep(25 * time.Millisecond)
	}

	body, _ := json.Marshal(server.AnalyzeRequest{
		Source: "int main(void) { int x; return x; }",
		File:   "smoke.c",
	})
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("analyze via router: %v", err)
	}
	var ar server.AnalyzeResponse
	err = json.NewDecoder(resp.Body).Decode(&ar)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze via router = %d (%v)", resp.StatusCode, err)
	}
	if ar.Result.Verdict.String() != "flagged" {
		t.Errorf("verdict = %v, want flagged", ar.Result.Verdict)
	}
	if got := resp.Header.Get("X-Undefc-Shard"); got != "s0" {
		t.Errorf("X-Undefc-Shard = %q, want s0 (relayed from the shard)", got)
	}
	if resp.Header.Get("X-Undefc-Instance") == "" {
		t.Error("response lost the shard's X-Undefc-Instance header")
	}
	resp.Body.Close()

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("router metrics: %v", err)
	}
	var rm cluster.RouterMetrics
	err = json.NewDecoder(resp.Body).Decode(&rm)
	resp.Body.Close()
	if err != nil || rm.Schema != cluster.MetricsSchema {
		t.Fatalf("router metrics = %q (%v), want schema %q", rm.Schema, err, cluster.MetricsSchema)
	}
	if rm.Delivered["flagged"] != 1 {
		t.Errorf("router delivered = %v, want {flagged:1}", rm.Delivered)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan int{"shard": shardDone, "router": rtDone} {
		select {
		case code := <-done:
			if code != 0 {
				t.Errorf("%s exit = %d, want 0", name, code)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s never drained after SIGTERM", name)
		}
	}
	rtMu.Lock()
	out := rtOut.String()
	rtMu.Unlock()
	for _, want := range []string{"router listening on " + rtAddr, "router drained clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("router stdout missing %q:\n%s", want, out)
		}
	}
}

// TestDaemonBadFlags pins the usage exit codes without binding a port.
func TestDaemonBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-inject", "server.handle=explode"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("bad inject spec: exit = %d, want 2", code)
	}
	if code := run([]string{"-model", "PDP11"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("bad model: exit = %d, want 2", code)
	}
	// Router mode checks -model at flag parse too; the unusable -addr
	// makes a missed check exit 1 at listen instead of serving.
	if code := run([]string{"-router", "-shards", "127.0.0.1:1", "-addr", "127.0.0.1:-1", "-model", "PDP11"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("router with bad model: exit = %d, want 2", code)
	}
}
