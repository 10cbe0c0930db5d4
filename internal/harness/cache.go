package harness

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"accmos/internal/codegen"
	"accmos/internal/coverage"
	"accmos/internal/obs"
)

// BuildCache memoises compiled generated programs by content hash
// (codegen.Program.Hash covers the model structure, every codegen option,
// the test cases and the run parameters), so repeated
// Simulate/Sweep/experiment calls on the same model reuse the binary
// instead of compiling and linking again. Safe for concurrent use;
// concurrent requests for the same program block on one build, and a
// build whose caller cancels it publishes nothing (BuildContext).
//
// Beside the binaries it keeps each program's compiled object, keyed by
// codegen.Program.CodeHash, which leaves out the run parameters (the
// -steps default and the uniform stimulus seeds and ranges): a binary
// miss whose object is resident only links it with its own parameters, a
// relink. Concurrent builds of one object block on one compile, and a
// compile error is cached with the object, so a sibling that differs only
// in its run parameters gets it without compiling.
//
// A cache can be bounded with SetLimit: once more than limit programs
// are resident, the least-recently-used completed entry (and its on-disk
// artifacts) is evicted — the correctness requirement for a long-lived
// process like the accmosd daemon, where an unbounded cache is a slow
// leak of heap and disk. Objects are bounded by the same limit and
// evicted apart from the binaries linked from them. Hit/miss/eviction counters are exposed through
// Stats for the daemon's /metrics endpoint.
//
// Two memos ride on the binaries so a repeat job skips the work in front
// of the compile: the front-end memo (Recall/Remember) maps an input
// digest to the program hash and what results need from the front end,
// and the admission memo (Admit) maps a model document to a daemon's
// admission verdict. Each is bounded by the same limit, and both drop
// what hangs off a binary when the binary is evicted.
type BuildCache struct {
	mu        sync.Mutex
	dir       string
	owned     bool                      // dir was created (and may be deleted) by the cache
	limit     int                       // max resident entries per index; 0 = unbounded
	bins      memo[string, binary]      // program hash -> built binary
	objs      memo[string, object]      // code hash -> compiled object
	front     memo[[32]byte, *Front]    // input digest -> front-end record
	admit     memo[[32]byte, admission] // document digest -> admission verdict
	evictions int64                     // binaries dropped by the limit
	relinks   int64                     // binary misses served by a resident object
}

// binary is one program's build: its binary, or the build error.
type binary struct {
	bin     string
	compile time.Duration
	err     error
}

// object is one program's compile: its source and archive, and the
// toolchain's link key they were compiled under, or the compile error.
type object struct {
	src, obj string
	linkKey  string
	err      error
}

// admission is one document's admission verdict, tied to the fingerprint
// of the model it admitted (zero when the document was rejected).
type admission struct {
	verdict any
	model   [32]byte
}

// CacheStats is a point-in-time snapshot of a cache's counters. Hits
// count lookups served by an existing binary (including waiters that
// blocked on another goroutine's in-flight build, and front-end memo
// hits); Misses count calls that had to build a binary; Relinks count
// the misses among them whose object was resident, so they only linked;
// Evictions count binaries dropped by the LRU bound.
// FrontHits/FrontMisses count front-end memo lookups (Recall),
// AdmitHits/AdmitMisses admission memo lookups (Admit).
type CacheStats struct {
	Entries     int   `json:"entries"`
	Limit       int   `json:"limit"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Relinks     int64 `json:"relinks"`
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
	c := &BuildCache{dir: dir}
	c.bins.init()
	c.objs.init()
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
		Entries:     len(c.bins.entries),
		Limit:       c.limit,
		Hits:        c.bins.hits,
		Misses:      c.bins.misses,
		Relinks:     c.relinks,
		Evictions:   c.evictions,
		FrontHits:   c.front.hits,
		FrontMisses: c.front.misses,
		AdmitHits:   c.admit.hits,
		AdmitMisses: c.admit.misses,
	}
}

// evictOverLimitLocked drops least-recently-used entries until the
// population fits the limit, binaries, objects and both memos alike.
// Entries whose build is still in flight (or whose result is being read
// or linked) hold their own lock and are skipped — they are by definition
// recently used. Caller holds c.mu.
func (c *BuildCache) evictOverLimitLocked() {
	if c.limit <= 0 {
		return
	}
	c.front.evictOver(c.limit, nil)
	c.admit.evictOver(c.limit, nil)
	c.objs.evictOver(c.limit, func(e *memoEntry[string, object]) {
		if e.val.obj != "" {
			os.Remove(e.val.obj)
			os.Remove(e.val.src)
		}
	})
	c.bins.evictOver(c.limit, func(e *memoEntry[string, binary]) {
		if e.val.bin != "" {
			os.Remove(e.val.bin)
		}
		c.evictions++
		c.dropMemosLocked(e.key)
	})
}

// dropMemosLocked forgets what hangs off the evicted binary key: the
// front-end records that name it, and the admission verdicts for the
// models those records were generated from. Caller holds c.mu.
func (c *BuildCache) dropMemosLocked(key string) {
	models := make(map[[32]byte]bool)
	c.front.drop(func(e *memoEntry[[32]byte, *Front]) bool {
		if e.val.Hash == key {
			models[e.val.Model] = true
			return true
		}
		return false
	})
	if len(models) > 0 {
		c.admit.drop(func(e *memoEntry[[32]byte, admission]) bool { return models[e.val.model] })
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
	if c.bins.entries[fr.Hash] == nil {
		return
	}
	e, _ := c.front.lookup(digest)
	e.done, e.val = true, fr
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
	var e *memoEntry[string, binary]
	if me := c.front.get(digest); me != nil && me.done {
		fr = me.val
		e = c.bins.get(fr.Hash)
	}
	c.mu.Unlock()
	if e != nil {
		e.mu.Lock()
		if e.done && e.val.err == nil {
			if _, err := os.Stat(e.val.bin); err == nil {
				bin, compileTime, ok = e.val.bin, e.val.compile, true
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
	c.bins.hits++
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
	e, found := acquire(c, &c.admit, sha256.Sum256(doc))
	defer e.mu.Unlock()
	if !e.done {
		e.val.verdict, e.val.model = admit()
		e.done = true
	}
	c.mu.Lock()
	if found {
		c.admit.hits++
	} else {
		c.admit.misses++
	}
	c.mu.Unlock()
	return e.val.verdict, found
}

// Build is BuildContext under context.Background().
func (c *BuildCache) Build(p *codegen.Program, tr *obs.Tracer) (bin string, compileTime time.Duration, hit bool, err error) {
	return c.BuildContext(context.Background(), p, tr)
}

// BuildContext returns a compiled binary for p, building at most once per
// program content. hit reports whether an existing binary was reused;
// compileTime is the original build's duration either way (so amortised
// callers still see the one-time cost). A miss whose object is resident
// links it without compiling (Stats counts it in Relinks), and its
// compileTime is the link's. Compile errors are cached too — the same
// source fails the same way, whatever its run parameters.
//
// Cancelling ctx kills the compile or link in flight. The build then
// fails with ctx's error and publishes nothing: no binary, no cached
// error, and an object only if its compile had finished. A caller
// waiting on the same program builds it itself.
func (c *BuildCache) BuildContext(ctx context.Context, p *codegen.Program, tr *obs.Tracer) (bin string, compileTime time.Duration, hit bool, err error) {
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
	c.mu.Unlock()

	e, _ := acquire(c, &c.bins, p.Hash())
	defer e.mu.Unlock()
	b := &e.val
	if e.done && b.err == nil {
		// Revalidate: the binary may have been swept away (temp cleaners,
		// tests removing the cache dir); rebuild instead of returning a
		// dangling path.
		if _, statErr := os.Stat(b.bin); statErr == nil {
			// A hit still records the (near-zero) compile span so a
			// traced pipeline keeps its one-compile-per-run shape.
			tr.Start("compile").End()
			c.count(&c.bins.hits)
			return b.bin, b.compile, true, nil
		}
		e.done = false
	}
	if e.done {
		c.count(&c.bins.hits)
		return "", 0, true, b.err
	}
	var relinked bool
	b.bin, b.compile, relinked, b.err = c.build(ctx, p, dir, tr)
	if b.err != nil && ctx.Err() != nil {
		abandon(c, &c.bins, e)
		return "", 0, false, b.err
	}
	e.done = true
	c.mu.Lock()
	c.bins.misses++
	if relinked {
		c.relinks++
	}
	c.mu.Unlock()
	return b.bin, b.compile, false, b.err
}

// build links p's binary under dir from its object, compiling the object
// first unless the object index holds one compiled under the current
// toolchain: relinked reports that it did not. It records a "compile"
// span with "compile.gc" (not on a relink) and "compile.link" children,
// plus "compile.toolchain" and "compile.runtime" when the toolchain memo
// had to be filled. The object's lock is held through the link, so
// eviction never removes an object while it is being linked.
func (c *BuildCache) build(ctx context.Context, p *codegen.Program, dir string, tr *obs.Tracer) (bin string, d time.Duration, relinked bool, err error) {
	defer tr.Start("compile").End()
	start := time.Now()
	tc, err := loadToolchain(ctx, p.Imports(), tr)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return "", 0, false, buildError(ctx, p, err)
	}
	e, _ := acquire(c, &c.objs, p.CodeHash())
	defer e.mu.Unlock()
	o := &e.val
	if e.done && o.err == nil {
		if _, statErr := os.Stat(o.obj); statErr != nil || o.linkKey != tc.linkKey() {
			e.done = false
		}
	}
	if e.done && o.err != nil {
		return "", 0, false, o.err
	}
	relinked = e.done
	if !e.done {
		base := filepath.Join(dir, codeTag(p))
		*o = object{src: base + ".go", obj: base + ".a", linkKey: tc.linkKey()}
		err := os.WriteFile(o.src, []byte(p.Source), 0o644)
		if err == nil {
			err = tc.compile(ctx, o.src, o.obj, tr)
		}
		if err != nil && ctx.Err() != nil {
			os.Remove(o.src)
			abandon(c, &c.objs, e)
			return "", 0, false, buildError(ctx, p, err)
		}
		e.done = true
		if err != nil {
			o.err = buildError(ctx, p, err)
			return "", 0, false, o.err
		}
	}
	bin = filepath.Join(dir, artifactTag(p))
	if err := tc.link(ctx, o.obj, bin, p.LDFlags(), tr); err != nil {
		return "", 0, false, buildError(ctx, p, err)
	}
	return bin, time.Since(start), relinked, nil
}

// acquire returns the entry under key in m, created if there is none,
// with its lock held: the caller fills it unless it is done. found
// reports whether it existed. An entry that a cancelled fill abandoned
// while the caller waited for its lock is looked up again.
func acquire[K comparable, V any](c *BuildCache, m *memo[K, V], key K) (e *memoEntry[K, V], found bool) {
	for {
		c.mu.Lock()
		e, found = m.lookup(key)
		if !found {
			c.evictOverLimitLocked()
		}
		c.mu.Unlock()
		e.mu.Lock()
		if !e.gone {
			return e, found
		}
		e.mu.Unlock()
	}
}

// abandon unpublishes e after a cancelled fill: it leaves m, so the
// index holds what it held before, and whoever waits for its lock looks
// the key up again. Caller holds e.mu.
func abandon[K comparable, V any](c *BuildCache, m *memo[K, V], e *memoEntry[K, V]) {
	e.gone = true
	c.mu.Lock()
	if m.entries[e.key] == e {
		m.remove(e)
	}
	c.mu.Unlock()
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
	c.bins.init()
	c.objs.init()
	c.front.init()
	c.admit.init()
	if c.owned && c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
		c.owned = false
	}
}

// memo is one LRU-ordered index of a BuildCache: the binaries, the
// objects, the front-end records and the admission verdicts each live in
// one. Its counters and structure are guarded by BuildCache.mu; an
// entry's own mutex guards its value while it is being filled.
type memo[K comparable, V any] struct {
	entries map[K]*memoEntry[K, V]
	order   *list.List // front = most recently used; values are *memoEntry[K, V]
	hits    int64
	misses  int64
}

type memoEntry[K comparable, V any] struct {
	mu   sync.Mutex
	done bool
	gone bool // abandoned by a cancelled fill: look the key up again
	key  K
	val  V
	elem *list.Element
}

func (m *memo[K, V]) init() {
	m.entries = make(map[K]*memoEntry[K, V])
	m.order = list.New()
}

// get returns the entry under key (nil if none), filled or not, marking
// it recently used.
func (m *memo[K, V]) get(key K) *memoEntry[K, V] {
	e := m.entries[key]
	if e != nil {
		m.order.MoveToFront(e.elem)
	}
	return e
}

// lookup returns the entry under key, creating an empty one if there is
// none; found reports whether it existed.
func (m *memo[K, V]) lookup(key K) (e *memoEntry[K, V], found bool) {
	if e = m.get(key); e != nil {
		return e, true
	}
	e = &memoEntry[K, V]{key: key}
	e.elem = m.order.PushFront(e)
	m.entries[key] = e
	return e, false
}

func (m *memo[K, V]) remove(e *memoEntry[K, V]) {
	delete(m.entries, e.key)
	m.order.Remove(e.elem)
}

// evictOver drops least-recently-used filled entries until at most limit
// remain, calling evicted (when non-nil) on each with its lock held;
// entries still being filled, or being read, are skipped.
func (m *memo[K, V]) evictOver(limit int, evicted func(*memoEntry[K, V])) {
	for elem := m.order.Back(); elem != nil && len(m.entries) > limit; {
		prev := elem.Prev()
		e := elem.Value.(*memoEntry[K, V])
		if e.mu.TryLock() {
			if e.done {
				m.remove(e)
				if evicted != nil {
					evicted(e)
				}
			}
			e.mu.Unlock()
		}
		elem = prev
	}
}

// drop removes every filled entry for which match reports true.
func (m *memo[K, V]) drop(match func(*memoEntry[K, V]) bool) {
	for elem := m.order.Front(); elem != nil; {
		next := elem.Next()
		e := elem.Value.(*memoEntry[K, V])
		if e.mu.TryLock() {
			if e.done && match(e) {
				m.remove(e)
			}
			e.mu.Unlock()
		}
		elem = next
	}
}
