package harness

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"accmos/internal/codegen"
	"accmos/internal/obs"
)

// BuildCache memoises compiled generated programs by content hash
// (codegen.Program.Hash covers the model structure, every codegen option
// and the embedded test cases), so repeated Simulate/Sweep/experiment
// calls on the same model reuse the binary instead of re-invoking
// `go build`. Safe for concurrent use; concurrent requests for the same
// program block on one build.
//
// A cache can be bounded with SetLimit: once more than limit programs
// are resident, the least-recently-used completed entry (and its on-disk
// artifacts) is evicted — the correctness requirement for a long-lived
// process like the accmosd daemon, where an unbounded cache is a slow
// leak of heap and disk. Hit/miss/eviction counters are exposed through
// Stats for the daemon's /metrics endpoint.
type BuildCache struct {
	mu      sync.Mutex
	dir     string
	owned   bool // dir was created (and may be deleted) by the cache
	limit   int  // max resident entries; 0 = unbounded
	entries map[string]*cacheEntry
	order   *list.List // LRU order: front = most recently used

	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	mu      sync.Mutex
	done    bool
	bin     string
	src     string
	compile time.Duration
	err     error

	elem *list.Element // position in BuildCache.order; value is the key
}

// CacheStats is a point-in-time snapshot of a cache's counters. Hits
// count Build calls served by an existing binary (including waiters that
// blocked on another goroutine's in-flight build); Misses count calls
// that had to compile; Evictions count entries dropped by the LRU bound.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Limit     int   `json:"limit"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewBuildCache creates a cache rooted at dir; with dir == "" a private
// temp directory is created on first use and lives for the process.
func NewBuildCache(dir string) *BuildCache {
	return &BuildCache{dir: dir, entries: make(map[string]*cacheEntry), order: list.New()}
}

// DefaultCache is the process-wide cache the facade uses for callers that
// did not pin a WorkDir.
var DefaultCache = NewBuildCache("")

// SetLimit bounds the cache to at most n resident programs (0 restores
// the unbounded default). Shrinking below the current population evicts
// least-recently-used entries immediately.
func (c *BuildCache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictOverLimitLocked()
}

// Stats snapshots the cache counters.
func (c *BuildCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Limit:     c.limit,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// evictOverLimitLocked drops least-recently-used entries until the
// population fits the limit. Entries whose build is still in flight (or
// whose result is being read) hold their own lock and are skipped — they
// are by definition recently used. Caller holds c.mu.
func (c *BuildCache) evictOverLimitLocked() {
	if c.limit <= 0 {
		return
	}
	for elem := c.order.Back(); elem != nil && len(c.entries) > c.limit; {
		prev := elem.Prev()
		key := elem.Value.(string)
		e := c.entries[key]
		if e != nil && e.mu.TryLock() {
			if e.done {
				if e.bin != "" {
					os.Remove(e.bin)
				}
				if e.src != "" {
					os.Remove(e.src)
				}
				delete(c.entries, key)
				c.order.Remove(elem)
				c.evictions++
			}
			e.mu.Unlock()
		}
		elem = prev
	}
}

// Build returns a compiled binary for p, building at most once per
// program content. hit reports whether an existing binary was reused;
// compileTime is the original build's duration either way (so amortised
// callers still see the one-time cost). Compile errors are cached too —
// the same source fails the same way.
func (c *BuildCache) Build(p *codegen.Program, tr *obs.Tracer) (bin string, compileTime time.Duration, hit bool, err error) {
	key := p.Hash()
	c.mu.Lock()
	if c.dir == "" {
		dir, mkErr := os.MkdirTemp("", "accmos-cache-")
		if mkErr != nil {
			c.mu.Unlock()
			return "", 0, false, fmt.Errorf("harness: build cache: %w", mkErr)
		}
		c.dir = dir
		c.owned = true
	}
	dir := c.dir
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		e.elem = c.order.PushFront(key)
		c.evictOverLimitLocked()
	} else {
		c.order.MoveToFront(e.elem)
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done && e.err == nil {
		// Revalidate: the binary may have been swept away (temp cleaners,
		// tests removing the cache dir); rebuild instead of returning a
		// dangling path.
		if _, statErr := os.Stat(e.bin); statErr == nil {
			// A hit still records the (near-zero) compile span so a
			// traced pipeline keeps its one-compile-per-run shape.
			tr.Start("compile").End()
			c.count(&c.hits)
			return e.bin, e.compile, true, nil
		}
		e.done = false
	}
	if e.done {
		c.count(&c.hits)
		return "", 0, true, e.err
	}
	e.bin, e.compile, e.err = Build(context.Background(), p, dir, tr)
	e.src = srcPathFor(p, dir)
	e.done = true
	c.count(&c.misses)
	return e.bin, e.compile, false, e.err
}

func (c *BuildCache) count(field *int64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// Has reports whether key holds a completed, successful build whose
// binary is still on disk — i.e. whether Export would succeed right now.
// In-flight builds report false: a fleet coordinator probing for transfer
// sources must not block on someone else's compile.
func (c *BuildCache) Has(key string) bool {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		return false
	}
	if !e.mu.TryLock() {
		return false
	}
	defer e.mu.Unlock()
	if !e.done || e.err != nil || e.bin == "" {
		return false
	}
	_, statErr := os.Stat(e.bin)
	return statErr == nil
}

// Export returns the compiled binary cached under key together with the
// SHA-256 of its bytes — the integrity check a receiving Import verifies.
// This is the fleet layer's artifact-shipping primitive: a model compiled
// on one node travels to any other node by content hash, so it is
// compiled everywhere once it is compiled anywhere.
func (c *BuildCache) Export(key string) (data []byte, digest string, err error) {
	c.mu.Lock()
	e := c.entries[key]
	if e != nil {
		c.order.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	if e == nil {
		return nil, "", fmt.Errorf("harness: export %s: not cached", shortKey(key))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done || e.err != nil || e.bin == "" {
		return nil, "", fmt.Errorf("harness: export %s: no successful build cached", shortKey(key))
	}
	data, err = os.ReadFile(e.bin)
	if err != nil {
		return nil, "", fmt.Errorf("harness: export %s: %w", shortKey(key), err)
	}
	sum := sha256.Sum256(data)
	return data, hex.EncodeToString(sum[:]), nil
}

// Import installs an externally compiled binary under key after verifying
// that the bytes hash to digest (SHA-256 hex). A mismatch — truncation or
// corruption in transit — is rejected without touching the cache. The
// installed entry behaves exactly like a locally built one: subsequent
// Build calls for the same program are cache hits, and the LRU bound and
// eviction apply. Importing over an existing successful entry is a no-op.
func (c *BuildCache) Import(key, digest string, data []byte) error {
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != digest {
		return fmt.Errorf("harness: import %s: digest mismatch: got %s want %s (corrupt transfer rejected)",
			shortKey(key), shortKey(got), shortKey(digest))
	}
	c.mu.Lock()
	if c.dir == "" {
		dir, mkErr := os.MkdirTemp("", "accmos-cache-")
		if mkErr != nil {
			c.mu.Unlock()
			return fmt.Errorf("harness: import: %w", mkErr)
		}
		c.dir = dir
		c.owned = true
	}
	dir := c.dir
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		e.elem = c.order.PushFront(key)
		c.evictOverLimitLocked()
	} else {
		c.order.MoveToFront(e.elem)
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done && e.err == nil && e.bin != "" {
		if _, statErr := os.Stat(e.bin); statErr == nil {
			return nil // already resident and healthy
		}
	}
	bin := filepath.Join(dir, "sim_import_"+shortKey(key))
	if err := os.WriteFile(bin, data, 0o755); err != nil {
		return fmt.Errorf("harness: import %s: %w", shortKey(key), err)
	}
	e.bin = bin
	e.src = ""
	e.compile = 0
	e.err = nil
	e.done = true
	return nil
}

// shortKey truncates a content hash for error messages and file names.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Dir returns the cache's artifact directory ("" until the first build
// when no directory was pinned).
func (c *BuildCache) Dir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// Remove drops every cached entry and deletes the artifact directory if
// the cache created it itself (a caller-pinned directory is left alone).
// The cache stays usable: the next Build recreates the directory.
// Counters survive, so Stats keeps reporting lifetime totals.
func (c *BuildCache) Remove() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cacheEntry)
	c.order.Init()
	if c.owned && c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
		c.owned = false
	}
}
