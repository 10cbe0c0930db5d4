package harness

import (
	"container/list"
	"context"
	"fmt"
	"os"
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
