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
