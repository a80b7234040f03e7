package artifact

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Fetcher pulls artifact frames from peer shards over the cluster's
// `GET /v1/artifact/{key}` endpoint, sweeping the static peer list in
// order: a dead or empty peer costs one failed try before the next.
type Fetcher struct {
	// Peers are the other shards' addresses ("host:port" or full URLs).
	Peers []string
}

const (
	// fetchPerTry bounds each attempt.
	fetchPerTry = 750 * time.Millisecond
	// fetchBudget bounds the whole fetch across all candidates: peer
	// fetch must stay decisively cheaper than just recompiling.
	fetchBudget = 2 * time.Second
)

func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// Fetch tries the peers in order and returns the first validated frame.
// errs counts failed attempts (transport errors, bad status, torn/corrupt
// bodies) — the mid-fetch-peer-death counter.
func (f *Fetcher) Fetch(ctx context.Context, key string) (frame []byte, from string, errs int64, ok bool) {
	ctx, cancel := context.WithTimeout(ctx, fetchBudget)
	defer cancel()

	for _, addr := range f.Peers {
		if addr == "" {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		data, err := fetchOne(ctx, addr, key)
		if err != nil {
			if err != ErrNotFound {
				errs++
			}
			continue
		}
		return data, addr, errs, true
	}
	return nil, "", errs, false
}

func fetchOne(ctx context.Context, addr, key string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, fetchPerTry)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL(addr)+"/v1/artifact/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := fetchClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, ErrNotFound
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("artifact: peer %s: status %d", addr, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFrameBytes+1))
	if err != nil {
		// Mid-fetch peer death lands here: a torn body, counted by the
		// caller, degrades to trying the next peer or compiling.
		return nil, fmt.Errorf("artifact: peer %s: %w", addr, err)
	}
	if len(data) > maxFrameBytes {
		return nil, fmt.Errorf("%w: peer %s frame exceeds %d bytes", ErrCorrupt, addr, maxFrameBytes)
	}
	if _, err := parseFrame(data); err != nil {
		return nil, fmt.Errorf("peer %s: %w", addr, err)
	}
	return data, nil
}

// fetchClient is the transport for peer fetches: small pool,
// short dial timeout — a dead peer must fail fast.
var fetchClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     30 * time.Second,
	},
}
