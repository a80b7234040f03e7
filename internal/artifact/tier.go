package artifact

import (
	"context"
	"sync/atomic"

	"repro/internal/driver"
	"repro/internal/sema"
)

// Config configures a Tier.
type Config struct {
	// Dir is the local store directory (required).
	Dir string
	// MaxBytes caps the local store; <= 0 means uncapped.
	MaxBytes int64
	// Peers are sibling shard addresses for the fetch tier; empty
	// disables peer fetch (pure local disk tier).
	Peers []string
}

// Tier is the content-addressed artifact tier: driver.Cache's
// second-level miss path. Load order is local disk → peer sweep → miss;
// every degradation (corrupt frame, version skew, torn fetch, dead peer)
// is counted and falls through to the compile path — the tier can slow
// a miss down, never wrong a verdict.
type Tier struct {
	disk  *Store
	fetch *Fetcher

	peerHits, peerMisses, peerErrors int64
	decodeCorrupt                    int64
	encodeErrors                     int64
	bytesFetched                     int64
	served, bytesServed              int64
}

// Tier implements driver.Artifacts.
var _ driver.Artifacts = (*Tier)(nil)

// NewTier opens the disk store under cfg.Dir and, when peers are
// configured, arms the fetch tier.
func NewTier(cfg Config) (*Tier, error) {
	disk, err := NewStore(cfg.Dir, cfg.MaxBytes)
	if err != nil {
		return nil, err
	}
	t := &Tier{disk: disk}
	if len(cfg.Peers) > 0 {
		t.fetch = &Fetcher{Peers: cfg.Peers}
	}
	return t, nil
}

// Load implements driver.Artifacts: it returns the stored program for
// key if any tier has a valid artifact, degrading through corruption to
// a miss.
func (t *Tier) Load(key string) (*sema.Program, bool) {
	if !validKey(key) {
		return nil, false
	}
	if payload, err := t.disk.Get(key); err == nil {
		if p, derr := Decode(payload); derr == nil {
			return p, true
		}
		// The frame checksum passed but the payload didn't decode: a
		// codec bug or in-place tampering. Count, drop, recompile.
		atomic.AddInt64(&t.decodeCorrupt, 1)
		t.disk.discardCorrupt(key, nil)
	}
	if t.fetch != nil {
		frame, _, errs, ok := t.fetch.Fetch(context.Background(), key)
		atomic.AddInt64(&t.peerErrors, errs)
		if ok {
			payload, perr := parseFrame(frame)
			if perr == nil {
				if p, derr := Decode(payload); derr == nil {
					atomic.AddInt64(&t.peerHits, 1)
					atomic.AddInt64(&t.bytesFetched, int64(len(frame)))
					t.disk.PutFrame(key, frame) // write through; best effort
					return p, true
				}
			}
			atomic.AddInt64(&t.decodeCorrupt, 1)
		} else {
			atomic.AddInt64(&t.peerMisses, 1)
		}
	}
	return nil, false
}

// Store implements driver.Artifacts: best-effort persist of a fresh
// compile. Encode failures are counted, never propagated — the caller
// already holds the program it needs.
func (t *Tier) Store(key string, prog *sema.Program) {
	if !validKey(key) {
		return
	}
	payload, err := Encode(prog)
	if err != nil {
		atomic.AddInt64(&t.encodeErrors, 1)
		return
	}
	t.disk.Put(key, payload)
}

// ServeFrame returns the raw frame for key for the peer endpoint,
// counting what was served.
func (t *Tier) ServeFrame(key string) ([]byte, error) {
	frame, err := t.disk.GetFrame(key)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&t.served, 1)
	atomic.AddInt64(&t.bytesServed, int64(len(frame)))
	return frame, nil
}

// Stats is the tier's counter snapshot, serialized into /metrics
// responses (JSON and Prometheus).
type Stats struct {
	// Disk tier.
	DiskHits    int64 `json:"disk_hits"`
	DiskMisses  int64 `json:"disk_misses"`
	DiskEntries int64 `json:"disk_entries"`
	DiskBytes   int64 `json:"disk_bytes"`
	Stores      int64 `json:"stores"`
	StoreErrors int64 `json:"store_errors"`
	Evictions   int64 `json:"evictions"`
	BytesStored int64 `json:"bytes_stored"`
	// Peer tier.
	PeerHits     int64 `json:"peer_hits"`
	PeerMisses   int64 `json:"peer_misses"`
	PeerErrors   int64 `json:"peer_errors"`
	BytesFetched int64 `json:"bytes_fetched"`
	// Integrity: frames or payloads that failed validation anywhere
	// (truncated, bad checksum, version skew, undecodable payload).
	Corrupt int64 `json:"corrupt"`
	// EncodeErrors counts programs that could not be serialized.
	EncodeErrors int64 `json:"encode_errors"`
	// Peer-endpoint serving counters.
	Served      int64 `json:"served"`
	BytesServed int64 `json:"bytes_served"`
}

// Stats returns a snapshot of the tier counters.
func (t *Tier) Stats() Stats {
	t.disk.mu.Lock()
	st := Stats{
		DiskHits:    t.disk.hits,
		DiskMisses:  t.disk.misses,
		DiskEntries: int64(len(t.disk.entries)),
		DiskBytes:   t.disk.total,
		Stores:      t.disk.stores,
		StoreErrors: t.disk.storeErrors,
		Evictions:   t.disk.evictions,
		BytesStored: t.disk.bytesStored,
		Corrupt:     t.disk.corrupt,
	}
	t.disk.mu.Unlock()
	st.PeerHits = atomic.LoadInt64(&t.peerHits)
	st.PeerMisses = atomic.LoadInt64(&t.peerMisses)
	st.PeerErrors = atomic.LoadInt64(&t.peerErrors)
	st.BytesFetched = atomic.LoadInt64(&t.bytesFetched)
	st.Corrupt += atomic.LoadInt64(&t.decodeCorrupt)
	st.EncodeErrors = atomic.LoadInt64(&t.encodeErrors)
	st.Served = atomic.LoadInt64(&t.served)
	st.BytesServed = atomic.LoadInt64(&t.bytesServed)
	return st
}
