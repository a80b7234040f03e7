package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/driver"
)

// ErrNotFound marks a key with no stored artifact — the ordinary miss.
var ErrNotFound = errors.New("artifact: not found")

// frameMagic brands every on-disk/on-wire frame. A frame wraps a codec
// payload with a version stamp, length, and checksum so torn writes,
// truncation, and bit rot are detected before the payload reaches the
// decoder — and so a frame fetched from a peer carries its own integrity
// end to end.
var frameMagic = []byte("ubaf")

// maxFrameBytes caps how large a frame we will read from disk or a peer;
// a compiled suite program is a few hundred KB at most.
const maxFrameBytes = 64 << 20

// buildFrame wraps a codec payload: magic, format version, payload
// length, sha256(payload), payload.
func buildFrame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	f := make([]byte, 0, len(frameMagic)+2*binary.MaxVarintLen64+len(sum)+len(payload))
	f = append(f, frameMagic...)
	f = binary.AppendUvarint(f, uint64(driver.ArtifactFormat))
	f = binary.AppendUvarint(f, uint64(len(payload)))
	f = append(f, sum[:]...)
	f = append(f, payload...)
	return f
}

// parseFrame validates a frame and returns its payload. Errors wrap
// ErrCorrupt (torn/checksum) or ErrVersion (format skew).
func parseFrame(data []byte) ([]byte, error) {
	if len(data) < len(frameMagic) || string(data[:len(frameMagic)]) != string(frameMagic) {
		return nil, fmt.Errorf("%w: bad frame magic", ErrCorrupt)
	}
	rest := data[len(frameMagic):]
	ver, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad frame version", ErrCorrupt)
	}
	rest = rest[n:]
	if ver != driver.ArtifactFormat {
		return nil, fmt.Errorf("%w: frame v%d, build v%d", ErrVersion, ver, driver.ArtifactFormat)
	}
	plen, n := binary.Uvarint(rest)
	if n <= 0 || plen > maxFrameBytes {
		return nil, fmt.Errorf("%w: bad frame length", ErrCorrupt)
	}
	rest = rest[n:]
	if len(rest) != sha256.Size+int(plen) {
		return nil, fmt.Errorf("%w: frame is %d bytes, want %d", ErrCorrupt, len(rest), sha256.Size+int(plen))
	}
	payload := rest[sha256.Size:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(rest[:sha256.Size]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// validKey reports whether key looks like a driver.SourceKey — 64 hex
// characters. The store refuses anything else: keys become file names and
// URL path segments, so this is also the path-traversal guard for the
// peer endpoint.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Store is the local disk tier: one checksummed frame file per key,
// written atomically (temp file + rename), with a size-capped LRU sweep.
// A store directory survives process restarts — that is the point: a
// SIGKILLed shard that comes back on the same dir answers repeat keys by
// decoding, not recompiling.
type Store struct {
	dir string
	max int64 // byte cap; <= 0 means uncapped

	mu      sync.Mutex
	entries map[string]*storeEntry
	total   int64
	clock   int64

	hits, misses, corrupt int64
	stores, storeErrors   int64
	evictions             int64
	bytesStored           int64
}

type storeEntry struct {
	size int64
	use  int64 // logical LRU clock at last touch
}

// NewStore opens (creating if needed) a store rooted at dir, scanning any
// frames a previous incarnation left behind.
func NewStore(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: store dir: %w", err)
	}
	s := &Store{dir: dir, max: maxBytes, entries: make(map[string]*storeEntry)}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: scan store: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		key, ok := strings.CutSuffix(name, ".art")
		if !ok || !validKey(key) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		// Seed LRU order from mtime so the oldest survivors evict first.
		s.entries[key] = &storeEntry{size: info.Size(), use: info.ModTime().UnixNano()}
		s.total += info.Size()
		if c := info.ModTime().UnixNano(); c > s.clock {
			s.clock = c
		}
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".art") }

// Len reports the number of stored frames.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Get returns the validated payload for key, or ErrNotFound / a typed
// corruption error. Corrupt frames are deleted on sight so the next miss
// recompiles and overwrites them.
func (s *Store) Get(key string) ([]byte, error) {
	frame, err := s.getFrame(key)
	if err != nil {
		return nil, err
	}
	payload, err := parseFrame(frame)
	if err != nil {
		s.discardCorrupt(key, err)
		return nil, err
	}
	return payload, nil
}

// GetFrame returns the raw validated frame for key — what the peer
// endpoint serves, checksum and all.
func (s *Store) GetFrame(key string) ([]byte, error) {
	frame, err := s.getFrame(key)
	if err != nil {
		return nil, err
	}
	if _, err := parseFrame(frame); err != nil {
		// Never serve a corrupt frame to a peer; degrade to not-found.
		s.discardCorrupt(key, err)
		return nil, ErrNotFound
	}
	return frame, nil
}

func (s *Store) getFrame(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	s.mu.Lock()
	s.hits++
	s.clock++
	if e, ok := s.entries[key]; ok {
		e.use = s.clock
	}
	s.mu.Unlock()
	return data, nil
}

// discardCorrupt counts and removes a frame that failed validation.
func (s *Store) discardCorrupt(key string, err error) {
	os.Remove(s.path(key))
	s.mu.Lock()
	s.corrupt++
	if e, ok := s.entries[key]; ok {
		s.total -= e.size
		delete(s.entries, key)
	}
	s.mu.Unlock()
}

// Put frames and stores a payload under key.
func (s *Store) Put(key string, payload []byte) error {
	return s.PutFrame(key, buildFrame(payload))
}

// PutFrame stores an already-framed artifact (the peer write-through
// path) atomically: temp file in the same directory, then rename.
func (s *Store) PutFrame(key string, frame []byte) error {
	if !validKey(key) {
		return fmt.Errorf("artifact: invalid key %q", key)
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err == nil {
		_, err = tmp.Write(frame)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), s.path(key))
		}
		if err != nil {
			os.Remove(tmp.Name())
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.storeErrors++
		return fmt.Errorf("artifact: store %s: %w", key[:8], err)
	}
	s.stores++
	s.bytesStored += int64(len(frame))
	s.clock++
	if e, ok := s.entries[key]; ok {
		s.total -= e.size
	}
	s.entries[key] = &storeEntry{size: int64(len(frame)), use: s.clock}
	s.total += int64(len(frame))
	s.gcLocked()
	return nil
}

// gcLocked evicts least-recently-used frames until the store fits its
// byte cap. Caller holds s.mu.
func (s *Store) gcLocked() {
	if s.max <= 0 {
		return
	}
	for s.total > s.max && len(s.entries) > 0 {
		var victim string
		var oldest int64
		for k, e := range s.entries {
			if victim == "" || e.use < oldest {
				victim, oldest = k, e.use
			}
		}
		s.total -= s.entries[victim].size
		delete(s.entries, victim)
		os.Remove(s.path(victim))
		s.evictions++
	}
}
