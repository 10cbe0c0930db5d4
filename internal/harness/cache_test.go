package harness_test

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/harness"
	"accmos/internal/model"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

func cacheProgram(t *testing.T, steps int64) *codegen.Program {
	t.Helper()
	m := model.NewBuilder("C").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Generate(c, codegen.Options{
		Coverage: true, TestCases: testcase.NewRandomSet(1, 1, -1, 1), DefaultSteps: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
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

	// A different embedded option (DefaultSteps) changes the source, the
	// hash, and therefore the cache key.
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
