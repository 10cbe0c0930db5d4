package harness_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/harness"
	"accmos/internal/model"
	"accmos/internal/obs"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

func cacheProgram(t *testing.T, steps int64) *codegen.Program {
	t.Helper()
	return gainProgram(t, "2", 1, steps)
}

// gainProgram generates a one-gain model: programs with equal gains share
// their code and differ only in their run parameters, the uniform seed
// and the step default.
func gainProgram(t *testing.T, gain string, seed uint64, steps int64) *codegen.Program {
	t.Helper()
	m := model.NewBuilder("C").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", gain)).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Generate(c, codegen.Options{
		Coverage: true, TestCases: testcase.NewRandomSet(1, seed, -1, 1), DefaultSteps: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildCacheRelinksSeedOnlySibling: a program that differs from a
// built one only in its seed is a binary miss that links the resident
// object without compiling it: one miss, one relink, no compile.gc span.
// The relinked binary runs its own seed.
func TestBuildCacheRelinksSeedOnlySibling(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	p1, p2 := gainProgram(t, "2", 1, 100), gainProgram(t, "2", 2, 100)
	if p1.CodeHash() != p2.CodeHash() || p1.Hash() == p2.Hash() {
		t.Fatal("seed-only siblings must share the code hash and differ in Hash")
	}
	bin1, _, _, err := cache.Build(p1, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	tr := obs.NewTracer()
	bin2, _, hit, err := cache.Build(p2, tr)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if hit || bin2 == bin1 || st.Misses-before.Misses != 1 || st.Relinks-before.Relinks != 1 || before.Relinks != 0 {
		t.Errorf("seed-only sibling: hit %v, stats before %+v after %+v; want one miss and one relink", hit, before, st)
	}
	if gc, link := spans(tr, "compile.gc"), spans(tr, "compile.link"); gc != 0 || link != 1 {
		t.Errorf("relink recorded %d compile.gc and %d compile.link spans, want 0 and 1", gc, link)
	}
	r1, err := harness.RunContext(context.Background(), bin1, harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := harness.RunContext(context.Background(), bin2, harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Steps != 100 || r2.Steps != 100 || r1.OutputHash == r2.OutputHash {
		t.Errorf("seeds 1 and 2 ran %d and %d steps with hashes %#x and %#x; want 100 steps each, distinct hashes",
			r1.Steps, r2.Steps, r1.OutputHash, r2.OutputHash)
	}
}

// TestBuildCacheConcurrentSeedOnlyBuildsCompileOnce: seed-only siblings
// built at once wait for one compile of their shared object; the others
// relink it.
func TestBuildCacheConcurrentSeedOnlyBuildsCompileOnce(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	const n = 3
	tracers := make([]*obs.Tracer, n)
	var wg sync.WaitGroup
	for i := range tracers {
		tracers[i] = obs.NewTracer()
		p := gainProgram(t, "3", uint64(10+i), 50)
		wg.Add(1)
		go func(tr *obs.Tracer) {
			defer wg.Done()
			if _, _, _, err := cache.Build(p, tr); err != nil {
				t.Error(err)
			}
		}(tracers[i])
	}
	wg.Wait()
	gc := 0
	for _, tr := range tracers {
		gc += spans(tr, "compile.gc")
	}
	if st := cache.Stats(); gc != 1 || st.Misses != n || st.Relinks != n-1 {
		t.Errorf("%d concurrent seed-only builds compiled %d times, stats %+v; want 1 compile, %d misses, %d relinks", n, gc, st, n, n-1)
	}
}

// TestBuildCacheEvictsObjects: objects are bounded by SetLimit apart
// from binaries. Once an object is evicted, its file is gone and a
// seed-only sibling compiles again instead of relinking.
func TestBuildCacheEvictsObjects(t *testing.T) {
	dir := t.TempDir()
	cache := harness.NewBuildCache(dir)
	defer cache.Remove()
	cache.SetLimit(1)
	objects := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "*.a"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	if _, _, _, err := cache.Build(gainProgram(t, "4", 1, 10), nil); err != nil {
		t.Fatal(err)
	}
	first := objects()
	if len(first) != 1 {
		t.Fatalf("objects after one build: %v, want one", first)
	}
	// A program with other code evicts the first object (and binary).
	if _, _, _, err := cache.Build(gainProgram(t, "5", 1, 10), nil); err != nil {
		t.Fatal(err)
	}
	if got := objects(); len(got) != 1 || got[0] == first[0] {
		t.Errorf("objects after a second program under a limit of one: %v, first was %v", got, first)
	}
	tr := obs.NewTracer()
	if _, _, _, err := cache.Build(gainProgram(t, "4", 2, 10), tr); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Relinks != 0 || st.Misses != 3 || spans(tr, "compile.gc") != 1 {
		t.Errorf("sibling of an evicted object: stats %+v, %d compile.gc spans; want no relink and one compile",
			st, spans(tr, "compile.gc"))
	}
}

// TestBuildCacheServesCompileErrorToSibling: a program that fails to
// compile fails the same way whatever its run parameters, so a sibling
// differing only in them gets the cached error without compiling.
func TestBuildCacheServesCompileErrorToSibling(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	src := "package main\nfunc main() { undefined() }\n"
	if _, _, _, err := cache.Build(&codegen.Program{Model: "BADS", Source: src, Params: "steps=1"}, nil); err == nil {
		t.Fatal("broken source must fail")
	}
	tr := obs.NewTracer()
	_, _, hit, err := cache.Build(&codegen.Program{Model: "BADS", Source: src, Params: "steps=2"}, tr)
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("sibling of a failed compile: %v, want the cached compile error", err)
	}
	if st := cache.Stats(); hit || st.Misses != 2 || st.Relinks != 0 || spans(tr, "compile.gc") != 0 {
		t.Errorf("sibling: hit %v, stats %+v, %d compile.gc spans; want a miss, no relink, no compile", hit, st, spans(tr, "compile.gc"))
	}
}

func TestBuildCacheHitAndMiss(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()

	p := cacheProgram(t, 100)
	bin1, ct1, hit1, err := cache.Build(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Error("first build reported a cache hit")
	}
	if ct1 <= 0 {
		t.Error("first build recorded no compile time")
	}
	bin2, _, hit2, err := cache.Build(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Error("second build of the identical program missed the cache")
	}
	if bin1 != bin2 {
		t.Errorf("hit returned a different binary: %s vs %s", bin1, bin2)
	}

	// A different run parameter (DefaultSteps) changes the hash, and
	// therefore the binary's cache key.
	other := cacheProgram(t, 200)
	bin3, _, hit3, err := cache.Build(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit3 {
		t.Error("a program with different options must miss the cache")
	}
	if bin3 == bin1 {
		t.Error("distinct programs share a cached binary path")
	}

	if res, err := harness.RunContext(context.Background(), bin2, harness.RunOptions{Steps: 5}); err != nil || res.Steps != 5 {
		t.Fatalf("cached binary does not run: %v %+v", err, res)
	}
}

func TestBuildCacheConcurrentSingleFlight(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()

	p := cacheProgram(t, 100)
	const n = 8
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bins   = map[string]bool{}
		misses int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bin, _, hit, err := cache.Build(p, nil)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			bins[bin] = true
			if !hit {
				misses++
			}
		}()
	}
	wg.Wait()
	if misses != 1 {
		t.Errorf("%d goroutines compiled; single-flight should compile exactly once", misses)
	}
	if len(bins) != 1 {
		t.Errorf("concurrent builds returned %d distinct binaries: %v", len(bins), bins)
	}
}

func TestBuildCacheRevalidatesDeletedBinary(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()

	p := cacheProgram(t, 100)
	bin, _, _, err := cache.Build(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(bin); err != nil {
		t.Fatal(err)
	}
	bin2, _, hit, err := cache.Build(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("a deleted binary must not count as a hit")
	}
	if _, err := os.Stat(bin2); err != nil {
		t.Fatalf("rebuild did not restore the binary: %v", err)
	}
}

func TestBuildCacheCachesCompileErrors(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()

	p := &codegen.Program{Model: "BADC", Source: "package main\nfunc main() { undefined() }\n"}
	_, _, _, err1 := cache.Build(p, nil)
	if err1 == nil {
		t.Fatal("broken source must fail")
	}
	_, _, _, err2 := cache.Build(p, nil)
	if err2 == nil {
		t.Fatal("cached failure must still fail")
	}
	if !strings.Contains(err2.Error(), "undefined") {
		t.Errorf("cached error lost its diagnostics: %v", err2)
	}
}

func TestBuildCacheLRUEvictionAndStats(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	cache.SetLimit(2)

	p1 := cacheProgram(t, 100)
	p2 := cacheProgram(t, 200)
	p3 := cacheProgram(t, 300)

	bin1, _, _, err := cache.Build(p1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bin2, _, _, err := cache.Build(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Touch p1 so p2 becomes the least recently used.
	if _, _, hit, err := cache.Build(p1, nil); err != nil || !hit {
		t.Fatalf("touching p1: hit=%v err=%v", hit, err)
	}
	// Inserting p3 overflows the limit and must evict p2 — including its
	// artifacts on disk.
	if _, _, _, err := cache.Build(p3, nil); err != nil {
		t.Fatal(err)
	}

	st := cache.Stats()
	if st.Entries != 2 || st.Limit != 2 {
		t.Errorf("stats after eviction: %+v, want 2 entries / limit 2", st)
	}
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 {
		t.Errorf("counters: %+v, want hits 1 / misses 3 / evictions 1", st)
	}
	if got, want := st.HitRate(), 0.25; got != want {
		t.Errorf("hit rate %v, want %v", got, want)
	}
	if _, err := os.Stat(bin2); !os.IsNotExist(err) {
		t.Errorf("evicted binary still on disk: %v", err)
	}
	if _, err := os.Stat(bin1); err != nil {
		t.Errorf("retained binary removed: %v", err)
	}

	// The evicted program rebuilds as a miss and evicts the new LRU (p1).
	if _, _, hit, err := cache.Build(p2, nil); err != nil || hit {
		t.Fatalf("rebuilding evicted p2: hit=%v err=%v", hit, err)
	}
	st = cache.Stats()
	if st.Misses != 4 || st.Evictions != 2 {
		t.Errorf("counters after rebuild: %+v, want misses 4 / evictions 2", st)
	}
	if _, err := os.Stat(bin1); !os.IsNotExist(err) {
		t.Errorf("p1 should be the second eviction: %v", err)
	}
}

func TestBuildCacheSetLimitShrinksImmediately(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()

	for _, steps := range []int64{100, 200, 300} {
		if _, _, _, err := cache.Build(cacheProgram(t, steps), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Entries != 3 || st.Limit != 0 {
		t.Fatalf("unbounded cache stats: %+v", st)
	}
	cache.SetLimit(1)
	st := cache.Stats()
	if st.Entries != 1 || st.Evictions != 2 {
		t.Errorf("after SetLimit(1): %+v, want 1 entry / 2 evictions", st)
	}
}

func TestBuildCacheRemoveResetsEntriesKeepsCounters(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	if _, _, _, err := cache.Build(cacheProgram(t, 100), nil); err != nil {
		t.Fatal(err)
	}
	cache.Remove()
	st := cache.Stats()
	if st.Entries != 0 {
		t.Errorf("entries survived Remove: %+v", st)
	}
	if st.Misses != 1 {
		t.Errorf("counters should survive Remove: %+v", st)
	}
}

func TestBuildCacheFrontMemo(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	digest := [32]byte{1}
	if _, _, _, ok := cache.Recall(digest); ok {
		t.Fatal("recall of an unknown digest hit")
	}
	p := cacheProgram(t, 100)
	fr := &harness.Front{Model: [32]byte{9}, Hash: p.Hash(), Layout: p.Layout, Opt: "stats"}
	// A record whose binary is not resident is not kept.
	cache.Remember(digest, fr)
	if _, _, _, ok := cache.Recall(digest); ok {
		t.Fatal("recall served a record whose binary was never built")
	}
	bin, ct, _, err := cache.Build(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache.Remember(digest, fr)
	got, gotBin, gotCT, ok := cache.Recall(digest)
	if !ok || got != fr || gotBin != bin || gotCT != ct {
		t.Fatalf("recall = %+v %q %v %v, want the remembered record, %q, %v", got, gotBin, gotCT, ok, bin, ct)
	}
	// A swept-away binary turns the record into a miss.
	os.Remove(bin)
	if _, _, _, ok := cache.Recall(digest); ok {
		t.Fatal("recall served a deleted binary")
	}
	st := cache.Stats()
	if st.FrontHits != 1 || st.FrontMisses != 3 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 front hit, 3 front misses, 1 hit, 1 miss", st)
	}
}

func TestBuildCacheAdmitMemo(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	var calls int
	admit := func() (any, [32]byte) {
		calls++
		return calls, [32]byte{}
	}
	v1, hit1 := cache.Admit([]byte("doc"), admit)
	v2, hit2 := cache.Admit([]byte("doc"), admit)
	v3, hit3 := cache.Admit([]byte("other"), admit)
	if calls != 2 || v1 != 1 || v2 != 1 || v3 != 2 || hit1 || !hit2 || hit3 {
		t.Fatalf("calls %d, verdicts %v/%v/%v, hits %v/%v/%v", calls, v1, v2, v3, hit1, hit2, hit3)
	}
	if st := cache.Stats(); st.AdmitHits != 1 || st.AdmitMisses != 2 {
		t.Errorf("stats = %+v, want 1 admit hit, 2 admit misses", st)
	}
}

func TestBuildCacheAdmitSingleFlight(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	var (
		mu    sync.Mutex
		calls int
		wg    sync.WaitGroup
	)
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = cache.Admit([]byte("doc"), func() (any, [32]byte) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				return new(int), [32]byte{}
			})
		}(i)
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("admit ran %d times for one document", calls)
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatal("concurrent submissions got different verdicts")
		}
	}
}

// Both memos hold at most limit records, and evicting a binary drops the
// front-end records naming it and the admission verdicts of their model.
func TestBuildCacheMemosEvictWithBinary(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	cache.SetLimit(1)
	model := [32]byte{7}
	cache.Admit([]byte("doc"), func() (any, [32]byte) { return "ok", model })
	p1 := cacheProgram(t, 100)
	if _, _, _, err := cache.Build(p1, nil); err != nil {
		t.Fatal(err)
	}
	cache.Remember([32]byte{1}, &harness.Front{Model: model, Hash: p1.Hash()})
	if _, _, _, ok := cache.Recall([32]byte{1}); !ok {
		t.Fatal("remembered record missed")
	}
	// A second binary evicts the first under the limit of one.
	if _, _, _, err := cache.Build(cacheProgram(t, 200), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := cache.Recall([32]byte{1}); ok {
		t.Error("front-end record outlived its evicted binary")
	}
	if _, hit := cache.Admit([]byte("doc"), func() (any, [32]byte) { return "again", model }); hit {
		t.Error("admission verdict outlived the evicted binary built from its model")
	}
	// The admission memo is bounded by the same limit.
	cache.Admit([]byte("doc2"), func() (any, [32]byte) { return "ok", [32]byte{} })
	if _, hit := cache.Admit([]byte("doc"), func() (any, [32]byte) { return "ok", model }); hit {
		t.Error("admission memo kept two verdicts under a limit of one")
	}
}

// waitForFile polls until a file matching pattern exists.
func waitForFile(t *testing.T, pattern string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if m, _ := filepath.Glob(pattern); len(m) > 0 {
			return
		}
	}
	t.Fatalf("no file matches %s", pattern)
}

// TestBuildCacheWaiterBuildsAfterCancel: a caller blocked on another
// caller's build of the same program is not failed by that caller's
// cancel. The cancelled build publishes nothing, and the waiter compiles
// and links the program itself: one entry, one miss.
func TestBuildCacheWaiterBuildsAfterCancel(t *testing.T) {
	build(t, program(t)) // warm the toolchain memo
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	p := slowProgram()
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, _, _, err := cache.BuildContext(ctx, p, nil)
		first <- err
	}()
	waitForFile(t, filepath.Join(cache.Dir(), "*.go")) // the source is written: the compile runs

	tr := obs.NewTracer()
	type result struct {
		bin string
		hit bool
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		bin, _, hit, err := cache.Build(p, tr)
		waiter <- result{bin, hit, err}
	}()
	// No event marks the waiter blocked on the entry's lock, so give it
	// ample time to get there; the compile still has seconds to run.
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: %v, want context.Canceled", err)
	}
	r := <-waiter
	if r.err != nil || r.hit {
		t.Fatalf("waiter: hit %v, %v; want a build of its own", r.hit, r.err)
	}
	if _, err := os.Stat(r.bin); err != nil {
		t.Fatal(err)
	}
	if gc := spans(tr, "compile.gc"); gc != 1 {
		t.Errorf("waiter recorded %d compile.gc spans, want 1", gc)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats %+v, want one entry and one miss", st)
	}
}

// TestBuildCacheCancelledLinkKeepsObject: a build cancelled after its
// object was compiled publishes no binary and leaves the entry count as
// it was, but keeps the object, so the next build of a seed-only sibling
// relinks it.
func TestBuildCacheCancelledLinkKeepsObject(t *testing.T) {
	cache := harness.NewBuildCache(t.TempDir())
	defer cache.Remove()
	if _, _, _, err := cache.Build(gainProgram(t, "4", 1, 100), nil); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	dead, kill := context.WithCancel(context.Background())
	kill()
	sibling := gainProgram(t, "4", 2, 100)
	if _, _, _, err := cache.BuildContext(dead, sibling, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled relink: %v, want context.Canceled", err)
	}
	if st := cache.Stats(); st != before {
		t.Errorf("a cancelled relink moved the stats from %+v to %+v", before, st)
	}
	tr := obs.NewTracer()
	if _, _, hit, err := cache.Build(sibling, tr); err != nil || hit {
		t.Fatalf("sibling after the cancel: hit %v, %v", hit, err)
	}
	if gc, st := spans(tr, "compile.gc"), cache.Stats(); gc != 0 || st.Relinks != 1 || st.Entries != 2 {
		t.Errorf("sibling after the cancel: %d compile.gc spans, stats %+v; want a relink", gc, st)
	}
}
