package harness

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sync"
	"time"

	"accmos/internal/codegen"
	"accmos/internal/coverage"
	"accmos/internal/obs"
)

// BuildCache memoises compiled generated programs by content hash
// (codegen.Program.Hash covers the model structure, every codegen option
// and the embedded test cases), so repeated Simulate/Sweep/experiment
// calls on the same model reuse the binary instead of compiling and
// linking again. Safe for concurrent use; concurrent requests for the same
// program block on one build.
//
// A cache can be bounded with SetLimit: once more than limit programs
// are resident, the least-recently-used completed entry (and its on-disk
// artifacts) is evicted — the correctness requirement for a long-lived
// process like the accmosd daemon, where an unbounded cache is a slow
// leak of heap and disk. Hit/miss/eviction counters are exposed through
// Stats for the daemon's /metrics endpoint.
//
// Two memos ride on the binaries so a repeat job skips the work in front
// of the compile: the front-end memo (Recall/Remember) maps an input
// digest to the program hash and what results need from the front end,
// and the admission memo (Admit) maps a model document to a daemon's
// admission verdict. Each is bounded by the same limit, and both drop
// what hangs off a binary when the binary is evicted.
type BuildCache struct {
	mu      sync.Mutex
	dir     string
	owned   bool // dir was created (and may be deleted) by the cache
	limit   int  // max resident entries per index; 0 = unbounded
	entries map[string]*cacheEntry
	order   *list.List // LRU order: front = most recently used
	front   memo       // input digest -> *Front
	admit   memo       // document digest -> admission verdict

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
// count lookups served by an existing binary (including waiters that
// blocked on another goroutine's in-flight build, and front-end memo
// hits); Misses count calls that had to compile; Evictions count
// binaries dropped by the LRU bound. FrontHits/FrontMisses count
// front-end memo lookups (Recall), AdmitHits/AdmitMisses admission memo
// lookups (Admit).
type CacheStats struct {
	Entries     int   `json:"entries"`
	Limit       int   `json:"limit"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	FrontHits   int64 `json:"frontHits"`
	FrontMisses int64 `json:"frontMisses"`
	AdmitHits   int64 `json:"admitHits"`
	AdmitMisses int64 `json:"admitMisses"`
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
	c := &BuildCache{dir: dir, entries: make(map[string]*cacheEntry), order: list.New()}
	c.front.init()
	c.admit.init()
	return c
}

// DefaultCache is the process-wide cache the facade uses for callers that
// set no Options.Cache.
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
		Entries:     len(c.entries),
		Limit:       c.limit,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		FrontHits:   c.front.hits,
		FrontMisses: c.front.misses,
		AdmitHits:   c.admit.hits,
		AdmitMisses: c.admit.misses,
	}
}

// evictOverLimitLocked drops least-recently-used entries until the
// population fits the limit, binaries and both memos alike. Entries whose
// build is still in flight (or whose result is being read) hold their own
// lock and are skipped — they are by definition recently used. Caller
// holds c.mu.
func (c *BuildCache) evictOverLimitLocked() {
	if c.limit <= 0 {
		return
	}
	c.front.evictOver(c.limit)
	c.admit.evictOver(c.limit)
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
				c.dropMemosLocked(key)
			}
			e.mu.Unlock()
		}
		elem = prev
	}
}

// dropMemosLocked forgets what hangs off the evicted binary key: the
// front-end records that name it, and the admission verdicts for the
// models those records were generated from. Caller holds c.mu.
func (c *BuildCache) dropMemosLocked(key string) {
	models := make(map[[32]byte]bool)
	c.front.drop(func(e *memoEntry) bool {
		if fr, _ := e.val.(*Front); fr != nil && fr.Hash == key {
			models[fr.Model] = true
			return true
		}
		return false
	})
	if len(models) > 0 {
		c.admit.drop(func(e *memoEntry) bool { return models[e.model] })
	}
}

// Front is what the front end produced for one input digest: enough for a
// repeat of the same inputs to run the built program without parsing,
// scheduling, optimizing, instrumenting or generating it again.
type Front struct {
	// Model is the structural fingerprint of the model the program was
	// generated from; it ties the record to the model's admission verdict.
	Model [32]byte
	// Hash is the generated program's codegen.Program.Hash: the key of
	// its binary in this cache.
	Hash string
	// Layout is the coverage layout the program's bitmaps follow.
	Layout *coverage.Layout
	// Opt is the caller's report of what the optimizer did.
	Opt any
}

// Remember records fr under an input digest once its binary is built.
// A record whose binary is not resident is not kept: a later Recall could
// not serve it.
func (c *BuildCache) Remember(digest [32]byte, fr *Front) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[fr.Hash]; !ok {
		return
	}
	e, _ := c.front.lookup(digest)
	e.done, e.model, e.val = true, fr.Model, fr
	c.evictOverLimitLocked()
}

// Recall serves a repeat of an input digest: the remembered front-end
// record and its binary, through the same stat-revalidated entry Build
// uses. A digest never remembered, or whose binary is gone or failed to
// build, is a front-end miss (ok false): the caller runs the front end
// and Build as for new inputs. A hit counts as a binary hit too, and
// compileTime is the original build's duration.
func (c *BuildCache) Recall(digest [32]byte) (fr *Front, bin string, compileTime time.Duration, ok bool) {
	c.mu.Lock()
	var e *cacheEntry
	if me, found := c.front.get(digest); found {
		fr = me.val.(*Front)
		if e = c.entries[fr.Hash]; e != nil {
			c.order.MoveToFront(e.elem)
		}
	}
	c.mu.Unlock()
	if e != nil {
		e.mu.Lock()
		if e.done && e.err == nil {
			if _, err := os.Stat(e.bin); err == nil {
				bin, compileTime, ok = e.bin, e.compile, true
			}
		}
		e.mu.Unlock()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.front.misses++
		return nil, "", 0, false
	}
	c.front.hits++
	c.hits++
	return fr, bin, compileTime, true
}

// Admit returns the admission verdict memoised for a model document under
// its SHA-256, calling admit on the first submission of the document.
// Concurrent submissions of one document wait for a single admit call and
// share its verdict, which callers must treat as read-only. admit also
// returns the admitted model's structural fingerprint (zero when the
// document was rejected), which ties the verdict to the binaries built
// from the model: evicting one of them drops the verdict too.
func (c *BuildCache) Admit(doc []byte, admit func() (verdict any, model [32]byte)) (verdict any, hit bool) {
	key := sha256.Sum256(doc)
	c.mu.Lock()
	e, found := c.admit.lookup(key)
	if !found {
		c.evictOverLimitLocked()
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.val, e.model = admit()
		e.done = true
	}
	c.mu.Lock()
	if found {
		c.admit.hits++
	} else {
		c.admit.misses++
	}
	c.mu.Unlock()
	return e.val, found
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

// Remove drops every cached entry and memo record, and deletes the
// artifact directory if the cache created it itself (a caller-pinned
// directory is left alone).
// The cache stays usable: the next Build recreates the directory.
// Counters survive, so Stats keeps reporting lifetime totals.
func (c *BuildCache) Remove() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cacheEntry)
	c.order.Init()
	c.front.init()
	c.admit.init()
	if c.owned && c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
		c.owned = false
	}
}

// memo is one LRU-ordered digest index of a BuildCache. Its counters and
// structure are guarded by BuildCache.mu; an entry's own mutex guards its
// value while it is being filled.
type memo struct {
	entries map[[32]byte]*memoEntry
	order   *list.List // front = most recently used; values are *memoEntry
	hits    int64
	misses  int64
}

type memoEntry struct {
	mu    sync.Mutex
	done  bool
	key   [32]byte
	model [32]byte // fingerprint of the model the value derives from
	val   any
	elem  *list.Element
}

func (m *memo) init() {
	m.entries = make(map[[32]byte]*memoEntry)
	m.order = list.New()
}

// get returns the filled entry under key, marking it recently used.
func (m *memo) get(key [32]byte) (*memoEntry, bool) {
	e := m.entries[key]
	if e == nil || !e.done {
		return nil, false
	}
	m.order.MoveToFront(e.elem)
	return e, true
}

// lookup returns the entry under key, creating an empty one if there is
// none; found reports whether it existed.
func (m *memo) lookup(key [32]byte) (e *memoEntry, found bool) {
	if e = m.entries[key]; e != nil {
		m.order.MoveToFront(e.elem)
		return e, true
	}
	e = &memoEntry{key: key}
	e.elem = m.order.PushFront(e)
	m.entries[key] = e
	return e, false
}

func (m *memo) remove(e *memoEntry) {
	delete(m.entries, e.key)
	m.order.Remove(e.elem)
}

// evictOver drops least-recently-used filled entries until at most limit
// remain; entries still being filled are skipped.
func (m *memo) evictOver(limit int) {
	for elem := m.order.Back(); elem != nil && len(m.entries) > limit; {
		prev := elem.Prev()
		e := elem.Value.(*memoEntry)
		if e.mu.TryLock() {
			if e.done {
				m.remove(e)
			}
			e.mu.Unlock()
		}
		elem = prev
	}
}

// drop removes every filled entry for which match reports true.
func (m *memo) drop(match func(*memoEntry) bool) {
	for elem := m.order.Front(); elem != nil; {
		next := elem.Next()
		e := elem.Value.(*memoEntry)
		if e.mu.TryLock() {
			if e.done && match(e) {
				m.remove(e)
			}
			e.mu.Unlock()
		}
		elem = next
	}
}
