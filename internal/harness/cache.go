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
	"accmos/internal/simrt"
)

// BuildCache memoises compiled generated programs by content hash
// (codegen.Program.Hash covers the model structure, every codegen option,
// the test cases and the run parameters), so repeated
// Simulate/Sweep/experiment calls on the same model reuse the binary
// instead of compiling and linking again. Safe for concurrent use;
// concurrent requests for the same program block on one build, and a
// build whose caller cancels it publishes nothing (BuildContext).
//
// A program's binary is its model binary plus its params file. The model
// binary is compiled and linked once per codegen.Program.CodeHash, which
// leaves out the run parameters (the -steps default and the uniform
// stimulus seeds and ranges); the program's binary is a hard link to it
// (a copy where the filesystem refuses hard links), and the params file
// beside it (simrt.ParamsSuffix) holds the run parameters. So a binary
// miss whose model binary is resident neither compiles nor links: it
// writes a link and a file. Concurrent builds of one model binary block on
// one compile and link, and a build error is cached with the model
// binary, so a sibling that differs only in its run parameters gets it
// without compiling.
//
// A cache can be bounded with SetLimit: once more than limit programs
// are resident, the least-recently-used completed entry (and its on-disk
// artifacts) is evicted — the correctness requirement for a long-lived
// process like the accmosd daemon, where an unbounded cache is a slow
// leak of heap and disk. Model binaries are bounded by the same limit
// and evicted apart from the programs' binaries, which are links of their
// own. Hit/miss/eviction counters are exposed through Stats for the
// daemon's /metrics endpoint.
//
// Two memos ride on the binaries so a repeat job skips the work in front
// of the compile: the front-end memo (Recall/Remember) maps an input
// digest to the program hash and what results need from the front end,
// and the admission memo (Admit) maps a model document to a daemon's
// admission verdict. Each is its own LRU under the same limit, so a memo
// entry outlives an evicted binary only until the LRU drops it; a
// front-end record whose binary is gone is a Recall miss.
type BuildCache struct {
	mu        sync.Mutex
	dir       string
	owned     bool                   // dir was created (and may be deleted) by the cache
	limit     int                    // max resident entries per index; 0 = unbounded
	bins      memo[string, binary]   // program hash -> binary and params file
	models    memo[string, modelBin] // code hash -> model binary
	front     memo[[32]byte, *Front] // input digest -> front-end record
	admit     memo[[32]byte, any]    // document digest -> admission verdict
	evictions int64                  // binaries dropped by the limit
	relinks   int64                  // binary misses served by a resident model binary
}

// binary is one program's build: its binary, or the build error.
type binary struct {
	bin     string
	compile time.Duration
	err     error
}

// modelBin is one code hash's build: its source and the binary linked
// from it, which has no params file, or the compile or link error.
type modelBin struct {
	src, bin string
	err      error
}

// CacheStats is a point-in-time snapshot of a cache's counters. Hits
// count lookups served by an existing binary (including waiters that
// blocked on another goroutine's in-flight build, and front-end memo
// hits); Misses count calls that had to build a binary; Relinks count
// the misses among them whose model binary was resident, so they neither
// compiled nor linked; Evictions count binaries dropped by the LRU bound.
// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
// FrontHits/FrontMisses count front-end memo lookups (Recall),
// AdmitHits/AdmitMisses admission memo lookups (Admit).
type CacheStats struct {
	Entries     int     `json:"entries"`
	Limit       int     `json:"limit"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Relinks     int64   `json:"relinks"`
	Evictions   int64   `json:"evictions"`
	HitRate     float64 `json:"hitRate"`
	FrontHits   int64   `json:"frontHits"`
	FrontMisses int64   `json:"frontMisses"`
	AdmitHits   int64   `json:"admitHits"`
	AdmitMisses int64   `json:"admitMisses"`
}

// NewBuildCache creates a cache rooted at dir; with dir == "" a private
// temp directory is created on first use and lives for the process.
func NewBuildCache(dir string) *BuildCache {
	c := &BuildCache{dir: dir}
	c.bins.init()
	c.models.init()
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
	st := CacheStats{
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
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// evictOverLimitLocked drops least-recently-used entries until the
// population fits the limit, binaries, model binaries and both memos
// alike. Entries whose build is still in flight (or whose result is being
// read or linked) hold their own lock and are skipped — they are by
// definition recently used. Caller holds c.mu.
func (c *BuildCache) evictOverLimitLocked() {
	if c.limit <= 0 {
		return
	}
	c.front.evictOver(c.limit, nil)
	c.admit.evictOver(c.limit, nil)
	c.models.evictOver(c.limit, func(e *memoEntry[string, modelBin]) {
		if e.val.bin != "" {
			os.Remove(e.val.bin)
			os.Remove(e.val.src)
		}
	})
	c.bins.evictOver(c.limit, func(e *memoEntry[string, binary]) {
		if e.val.bin != "" {
			os.Remove(e.val.bin)
			os.Remove(e.val.bin + simrt.ParamsSuffix)
		}
		c.evictions++
	})
}

// Front is what the front end produced for one input digest: enough for a
// repeat of the same inputs to run the built program without parsing,
// scheduling, optimizing, instrumenting or generating it again.
type Front struct {
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
		e.lock <- struct{}{}
		if e.done && e.val.err == nil && installed(e.val.bin) {
			bin, compileTime, ok = e.val.bin, e.val.compile, true
		}
		e.unlock()
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
// share its verdict, which callers must treat as read-only.
func (c *BuildCache) Admit(doc []byte, admit func() any) (verdict any, hit bool) {
	e, found, _ := acquire(context.Background(), c, &c.admit, sha256.Sum256(doc))
	defer e.unlock()
	if !e.done {
		e.val = admit()
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

// Build is BuildContext under context.Background().
func (c *BuildCache) Build(p *codegen.Program, tr *obs.Tracer) (bin string, compileTime time.Duration, hit bool, err error) {
	return c.BuildContext(context.Background(), p, tr)
}

// BuildContext returns a compiled binary for p, building at most once per
// program content. hit reports whether an existing binary was reused;
// compileTime is the original build's duration either way (so amortised
// callers still see the one-time cost). A miss whose model binary is
// resident neither compiles nor links (Stats counts it in Relinks), and
// its compileTime is that of placing the binary and its params file.
// Compile errors are cached too — the same source fails the same way,
// whatever its run parameters.
//
// Cancelling ctx kills the compile or link in flight, and a caller
// waiting on another caller's build of the same program or model gives
// up at once. The build then fails with ctx's error and publishes
// nothing: no binary, no model binary and no cached error. A caller
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

	e, _, err := acquire(ctx, c, &c.bins, p.Hash())
	if err != nil {
		return "", 0, false, buildError(ctx, p, err)
	}
	defer e.unlock()
	b := &e.val
	if e.done && b.err == nil {
		// Revalidate: the binary or its params file may have been swept
		// away (temp cleaners, tests removing the cache dir); rebuild
		// instead of returning a dangling path.
		if installed(b.bin) {
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
	var resident bool
	b.bin, b.compile, resident, b.err = c.build(ctx, p, dir, tr)
	if b.err != nil && ctx.Err() != nil {
		abandon(c, &c.bins, e)
		return "", 0, false, b.err
	}
	e.done = true
	c.mu.Lock()
	c.bins.misses++
	if resident {
		c.relinks++
	}
	c.mu.Unlock()
	return b.bin, b.compile, false, b.err
}

// build places p's binary under dir: a link of its model binary, built
// first unless the model index holds it (resident reports that it did),
// and its params file. It records a "compile" span; building the model
// binary adds "compile.gc" and "compile.link" children, plus
// "compile.toolchain" and "compile.runtime" when the toolchain memo had
// to be filled. The model entry's lock is held until the binary is
// placed, so eviction never removes a model binary while it is linked
// from.
func (c *BuildCache) build(ctx context.Context, p *codegen.Program, dir string, tr *obs.Tracer) (bin string, d time.Duration, resident bool, err error) {
	defer tr.Start("compile").End()
	start := time.Now()
	// A cancelled caller publishes nothing, even where no tool would run.
	if err := ctx.Err(); err != nil {
		return "", 0, false, buildError(ctx, p, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, false, buildError(ctx, p, err)
	}
	e, _, err := acquire(ctx, c, &c.models, p.CodeHash())
	if err != nil {
		return "", 0, false, buildError(ctx, p, err)
	}
	defer e.unlock()
	m := &e.val
	if e.done && m.err == nil {
		if _, statErr := os.Stat(m.bin); statErr != nil {
			e.done = false
		}
	}
	if e.done && m.err != nil {
		return "", 0, false, m.err
	}
	resident = e.done
	if !e.done {
		base := filepath.Join(dir, codeTag(p))
		*m = modelBin{src: base + ".go", bin: base + ".model"}
		tc, err := loadToolchain(ctx, p.Imports(), tr)
		if err == nil {
			err = os.WriteFile(m.src, []byte(p.Source), 0o644)
		}
		if err == nil {
			err = tc.build(ctx, m.src, m.bin, tr)
		}
		if err != nil && ctx.Err() != nil {
			os.Remove(m.src)
			abandon(c, &c.models, e)
			return "", 0, false, buildError(ctx, p, err)
		}
		e.done = true
		if err != nil {
			m.err = buildError(ctx, p, err)
			return "", 0, false, m.err
		}
	}
	bin = filepath.Join(dir, artifactTag(p))
	if err := install(m.bin, bin, p.Params); err != nil {
		return "", 0, false, buildError(ctx, p, err)
	}
	return bin, time.Since(start), resident, nil
}

// hardLink is os.Link; tests replace it to stand for a filesystem that
// refuses hard links.
var hardLink = os.Link

// install writes bin's params file and makes bin a hard link to model,
// or a copy where the filesystem refuses hard links. Each is written
// under a temporary name and renamed into place, so a process starting
// bin finds both whole, and one still running an older bin is not
// disturbed.
func install(model, bin, params string) error {
	err := replaceFile(bin+simrt.ParamsSuffix, func(tmp string) error {
		return os.WriteFile(tmp, []byte(params), 0o644)
	})
	if err != nil {
		return err
	}
	return replaceFile(bin, func(tmp string) error {
		if hardLink(model, tmp) == nil {
			return nil
		}
		data, err := os.ReadFile(model)
		if err != nil {
			return err
		}
		return os.WriteFile(tmp, data, 0o755)
	})
}

// replaceFile creates path's new content under a fresh temporary name
// beside it with create, which must create the file, and renames it into
// place.
func replaceFile(path string, create func(tmp string) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	f.Close()
	os.Remove(tmp) // reserved a unique name; a hard link needs it free
	if err = create(tmp); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// installed reports whether bin and its params file are both on disk.
func installed(bin string) bool {
	for _, name := range []string{bin, bin + simrt.ParamsSuffix} {
		if _, err := os.Stat(name); err != nil {
			return false
		}
	}
	return true
}

// acquire returns the entry under key in m, created if there is none,
// with its lock held: the caller fills it unless it is done. found
// reports whether it existed. An entry that a cancelled fill abandoned
// while the caller waited for its lock is looked up again. A caller
// whose ctx ends while it waits gives up with ctx's error.
func acquire[K comparable, V any](ctx context.Context, c *BuildCache, m *memo[K, V], key K) (e *memoEntry[K, V], found bool, err error) {
	for {
		c.mu.Lock()
		e, found = m.lookup(key)
		if !found {
			c.evictOverLimitLocked()
		}
		c.mu.Unlock()
		if !e.tryLock() {
			select {
			case e.lock <- struct{}{}:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		if !e.gone {
			return e, found, nil
		}
		e.unlock()
	}
}

// abandon unpublishes e after a cancelled fill: it leaves m, so the
// index holds what it held before, and whoever waits for its lock looks
// the key up again. Caller holds e's lock.
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
	c.models.init()
	c.front.init()
	c.admit.init()
	if c.owned && c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
		c.owned = false
	}
}

// memo is one LRU-ordered index of a BuildCache: the binaries, the model
// binaries, the front-end records and the admission verdicts each live
// in one. Its counters and structure are guarded by BuildCache.mu; an
// entry's own lock guards its value while it is being filled.
type memo[K comparable, V any] struct {
	entries map[K]*memoEntry[K, V]
	order   *list.List // front = most recently used; values are *memoEntry[K, V]
	hits    int64
	misses  int64
}

type memoEntry[K comparable, V any] struct {
	// lock is a one-slot channel, not a mutex, so a caller waiting for
	// another's fill still honours its own context (acquire).
	lock chan struct{}
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
	e = &memoEntry[K, V]{key: key, lock: make(chan struct{}, 1)}
	e.elem = m.order.PushFront(e)
	m.entries[key] = e
	return e, false
}

// tryLock takes e's lock if it is free, reporting whether it did.
func (e *memoEntry[K, V]) tryLock() bool {
	select {
	case e.lock <- struct{}{}:
		return true
	default:
		return false
	}
}

func (e *memoEntry[K, V]) unlock() { <-e.lock }

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
		if e.tryLock() {
			if e.done {
				m.remove(e)
				if evicted != nil {
					evicted(e)
				}
			}
			e.unlock()
		}
		elem = prev
	}
}
