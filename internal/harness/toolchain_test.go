package harness_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/model"
	"accmos/internal/obs"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// spans counts the spans named name that tr recorded.
func spans(tr *obs.Tracer, name string) int { return len(tr.Trace().Find(name)) }

// buildAndRun builds p through a cache rooted at dir under its own
// tracer, runs the binary for one step and returns the tracer.
func buildAndRun(t *testing.T, p *codegen.Program, dir string) *obs.Tracer {
	t.Helper()
	tr := obs.NewTracer()
	bin, _, _, err := harness.NewBuildCache(dir).Build(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != p.Model {
		t.Errorf("ran model %q, want %q", res.Model, p.Model)
	}
	return tr
}

// chdir changes the working directory for the rest of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestBuildSurvivesGOCACHESwap: a caller may point GOCACHE at a new
// directory and delete the old one between builds, as the benchmark does
// between set-ups. The memoized export files then name deleted paths, so
// the next build must list the toolchain again, and compile the runtime
// archive against the new export files, instead of failing. The first
// build starts from an empty cache and so compiles the standard library
// packages once.
func TestBuildSurvivesGOCACHESwap(t *testing.T) {
	p := program(t)
	first := t.TempDir()
	t.Setenv("GOCACHE", first)
	if n := spans(buildAndRun(t, p, t.TempDir()), "compile.toolchain"); n != 1 {
		t.Errorf("first build under a new GOCACHE listed the toolchain %d times, want 1", n)
	}

	second := filepath.Join(t.TempDir(), "gocache")
	if err := os.Rename(first, second); err != nil {
		t.Fatal(err)
	}
	t.Setenv("GOCACHE", second)
	dir := t.TempDir()
	tr := buildAndRun(t, p, dir)
	if n := spans(tr, "compile.toolchain"); n != 1 {
		t.Errorf("build after the GOCACHE swap listed the toolchain %d times, want 1", n)
	}
	for _, name := range []string{"compile.runtime", "compile.gc", "compile.link"} {
		if n := spans(tr, name); n != 1 {
			t.Errorf("%s recorded %d times, want 1", name, n)
		}
	}
	// The importcfg files, the compiled archive and temporary outputs
	// are gone: only the binary, its params file, and the source and
	// model binary the cache keeps stay behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, filepath.Ext(e.Name()))
	}
	sort.Strings(names)
	if strings.Join(names, " ") != " .go .model .params" {
		t.Errorf("build dir holds %v, want just the binary, its params file, the source and the model binary", entries)
	}
}

// TestConcurrentColdBuildsListToolchainOnce: builds that arrive together
// at a cold memo wait for one listing and one runtime archive compile
// instead of each running the go command and the compiler.
func TestConcurrentColdBuildsListToolchainOnce(t *testing.T) {
	p := program(t)
	harness.ResetToolchain()
	const n = 8
	tracers := make([]*obs.Tracer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		tracers[i] = obs.NewTracer()
		dir := t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, errs[i] = harness.NewBuildCache(dir).Build(p, tracers[i])
		}()
	}
	wg.Wait()
	listings, archives := 0, 0
	for i, tr := range tracers {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		listings += spans(tr, "compile.toolchain")
		archives += spans(tr, "compile.runtime")
		if spans(tr, "compile.gc") != 1 || spans(tr, "compile.link") != 1 {
			t.Errorf("build %d: trace lacks one compile.gc and one compile.link span:\n%s", i, tr.Summary())
		}
	}
	if listings != 1 {
		t.Errorf("%d concurrent cold builds listed the toolchain %d times, want 1", n, listings)
	}
	if archives != 1 {
		t.Errorf("%d concurrent cold builds compiled the runtime archive %d times, want 1", n, archives)
	}
}

// TestRuntimeArchiveRecompiledWhenDeleted: the archive is compiled once
// per process and revalidated on every build. Deleted (a temp cleaner),
// it is compiled again, without listing the toolchain again.
func TestRuntimeArchiveRecompiledWhenDeleted(t *testing.T) {
	p := program(t)
	harness.ResetToolchain()
	if n := spans(buildAndRun(t, p, t.TempDir()), "compile.runtime"); n != 1 {
		t.Errorf("cold build compiled the runtime archive %d times, want 1", n)
	}
	if n := spans(buildAndRun(t, p, t.TempDir()), "compile.runtime"); n != 0 {
		t.Errorf("warm build compiled the runtime archive %d times, want 0", n)
	}
	archive := harness.RuntimeArchive()
	if err := os.Remove(archive); err != nil {
		t.Fatal(err)
	}
	tr := buildAndRun(t, p, t.TempDir())
	if n := spans(tr, "compile.runtime"); n != 1 {
		t.Errorf("build after deleting the archive compiled it %d times, want 1", n)
	}
	if n := spans(tr, "compile.toolchain"); n != 0 {
		t.Errorf("build after deleting the archive listed the toolchain %d times, want 0", n)
	}
	if again := harness.RuntimeArchive(); again == archive || again == "" {
		t.Errorf("archive after recompiling is %q, want a new path (was %q)", again, archive)
	}
	if _, err := os.Stat(filepath.Dir(archive)); !os.IsNotExist(err) {
		t.Errorf("the deleted archive's directory is still there (%v)", err)
	}
}

// TestRuntimeArchiveCancelKeepsMemo: a build cancelled while it compiles
// the archive fails with the cancellation, publishes nothing and leaves
// no directory behind; the next build compiles the archive and reuses
// the memo's listing.
func TestRuntimeArchiveCancelKeepsMemo(t *testing.T) {
	p := program(t)
	buildAndRun(t, p, t.TempDir()) // warm the memo
	archive := harness.RuntimeArchive()
	if err := os.Remove(archive); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel) // the compile takes ~100 ms or more
	tr := obs.NewTracer()
	if _, _, _, err := harness.NewBuildCache(t.TempDir()).BuildContext(ctx, p, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("build cancelled during the archive compile: %v, want context.Canceled", err)
	}
	if n := spans(tr, "compile.runtime"); n != 1 {
		t.Fatalf("the cancelled build recorded %d compile.runtime spans, want 1:\n%s", n, tr.Summary())
	}
	if got := harness.RuntimeArchive(); got != archive {
		t.Errorf("memo archive after a cancelled compile is %q, want the old %q", got, archive)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "accmos-simrt-*")); len(left) != 0 {
		t.Errorf("cancelled compile left %v behind", left)
	}
	tr = buildAndRun(t, p, t.TempDir())
	if n := spans(tr, "compile.runtime"); n != 1 {
		t.Errorf("build after a cancelled archive compile compiled it %d times, want 1", n)
	}
	if n := spans(tr, "compile.toolchain"); n != 0 {
		t.Errorf("build after a cancelled archive compile listed the toolchain %d times, want 0", n)
	}
}

// slowProgram is a program whose one huge function takes the compiler
// seconds (about 4 s on a 2-vCPU host).
func slowProgram() *codegen.Program {
	var sb strings.Builder
	sb.WriteString("package main\n\nimport \"os\"\n\nvar x [64]float64\n\nfunc f() {\n")
	for i := 0; i < 30000; i++ {
		fmt.Fprintf(&sb, "\tx[%d] = x[%d]*1.0001 + x[%d]\n", i%64, (i*7+3)%64, (i*13+5)%64)
	}
	sb.WriteString("}\n\nfunc main() { f(); os.Exit(int(x[0])) }\n")
	return &codegen.Program{Model: "SLOW", Source: sb.String()}
}

// TestBuildCancelKillsCompilerAndKeepsMemo: cancelling a build kills the
// compiler at once and leaves the memo usable, both when the compile is
// in flight and when the toolchain listing is.
func TestBuildCancelKillsCompilerAndKeepsMemo(t *testing.T) {
	p := program(t)
	buildAndRun(t, p, t.TempDir()) // warm the memo

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(200*time.Millisecond, cancel)
	start := time.Now()
	cache := harness.NewBuildCache(t.TempDir())
	_, _, _, err := cache.BuildContext(ctx, slowProgram(), nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a build cancelled mid-compile succeeded")
	}
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "SLOW") {
		t.Errorf("error should wrap context.Canceled and name the model: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled compile returned after %v, want well under the compile's own time", elapsed)
	}
	if left, _ := os.ReadDir(cache.Dir()); len(left) != 0 || cache.Stats().Entries != 0 {
		t.Errorf("the cancelled build published %d entries and left %v", cache.Stats().Entries, left)
	}
	if n := spans(buildAndRun(t, p, t.TempDir()), "compile.toolchain"); n != 0 {
		t.Errorf("build after a cancelled compile listed the toolchain %d times, want 0", n)
	}

	harness.ResetToolchain()
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, _, _, err := harness.NewBuildCache(t.TempDir()).BuildContext(dead, p, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("build with a cancelled listing: %v, want context.Canceled", err)
	}
	if n := spans(buildAndRun(t, p, t.TempDir()), "compile.toolchain"); n != 1 {
		t.Errorf("build after a cancelled listing listed the toolchain %d times, want 1", n)
	}
}

// TestBuildIgnoresCallerGoMod: the caller's working directory may sit in
// a module whose go.mod would stop or redirect the go command (a future
// go line, a toolchain line, a vendor directory). Builds do not depend on
// it.
func TestBuildIgnoresCallerGoMod(t *testing.T) {
	p := program(t)
	hostile := t.TempDir()
	files := map[string]string{
		"go.mod":             "module hostile\n\ngo 1.99\n\ntoolchain go1.99.0\n\nrequire example.com/x v1.0.0\n",
		"vendor/modules.txt": "# example.com/x v1.0.0\n## explicit\nexample.com/x\n",
	}
	for name, body := range files {
		path := filepath.Join(hostile, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Were the go.mod consulted, GOTOOLCHAIN=local makes it fail here
	// rather than try to fetch go1.99.
	t.Setenv("GOTOOLCHAIN", "local")
	t.Setenv("GOFLAGS", "-mod=vendor")
	chdir(t, hostile)
	harness.ResetToolchain()
	buildAndRun(t, p, t.TempDir())
}

// TestBuildGrowsImportsForNewPackage: a program importing a package no
// earlier program did grows the memo by that package, once. strings is
// already a dependency of generated programs' imports; container/list is
// not, so without the growth the compiler could not find it.
func TestBuildGrowsImportsForNewPackage(t *testing.T) {
	harness.ResetToolchain()
	if n := spans(buildAndRun(t, program(t), t.TempDir()), "compile.toolchain"); n != 1 {
		t.Errorf("cold build listed the toolchain %d times, want 1", n)
	}
	stub := &codegen.Program{Model: "STR", Source: `package main

import (
	"bufio"
	"container/list"
	"fmt"
	"os"
	"strings"
)

func main() {
	bufio.NewReader(os.Stdin).ReadString('\n')
	l := list.New()
	l.PushBack("STR")
	fmt.Println(` + "`" + `{"accmosRun":1,"id":"r1","laneCount":1}` + "`" + `)
	fmt.Println(strings.Replace(` + "`" + `{"model":"M","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":0,"diagTotal":0}` + "`" + `, "M", l.Front().Value.(string), 1))
}
`}
	if got := stub.Imports(); strings.Join(got, " ") != "bufio container/list fmt os strings" {
		t.Fatalf("stub imports %v", got)
	}
	if n := spans(buildAndRun(t, stub, t.TempDir()), "compile.toolchain"); n != 1 {
		t.Errorf("build with new imports listed the toolchain %d times, want 1", n)
	}
	if n := spans(buildAndRun(t, stub, t.TempDir()), "compile.toolchain"); n != 0 {
		t.Errorf("second build with those imports listed the toolchain %d times, want 0", n)
	}
}

// TestLinkClosureExcludesReflect: a generated program links the runtime,
// its standard imports and their closure, and no package built on
// reflect. No Table-1 program imports one, and a cold build of one of
// them, and of a program with a range and a delta check (whose details
// the runtime formats), lists an export table, which is the build's
// importcfg, that names none of them.
func TestLinkClosureExcludesReflect(t *testing.T) {
	banned := []string{"reflect", "fmt", "encoding/json", "flag", "encoding/base64", "encoding/binary"}
	generate := func(m *model.Model, custom []diagnose.CustomCheck) *codegen.Program {
		t.Helper()
		c, err := actors.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		p, err := codegen.Generate(c, codegen.Options{
			Coverage: true, Diagnose: true, Custom: custom, TestCases: testcase.NewRandomSet(len(c.Inports), 1, -1, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var table1 *codegen.Program
	for _, name := range benchmodels.Names() {
		p := generate(benchmodels.MustBuild(name), nil)
		for _, imp := range p.Imports() {
			if slices.Contains(banned, imp) {
				t.Errorf("generated %s imports %s", name, imp)
			}
		}
		if name == "SPV" {
			table1 = p
		}
	}
	checked := generate(model.NewBuilder("CC").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild(), []diagnose.CustomCheck{
		{Actor: "G", Name: "range", Kind: diagnose.RangeCheck, Lo: -1, Hi: 1},
		{Actor: "G", Name: "delta", Kind: diagnose.DeltaCheck, MaxDelta: 0.5},
	})
	if !strings.Contains(checked.Source, "simrt.RangeDetail(") || !strings.Contains(checked.Source, "simrt.DeltaDetail(") {
		t.Fatal("the custom-check program does not format its details through the runtime")
	}
	for _, p := range []*codegen.Program{table1, checked} {
		harness.ResetToolchain()
		buildAndRun(t, p, t.TempDir())
		pkgs := harness.ToolchainPackages()
		if !slices.Contains(pkgs, "strconv") {
			t.Fatalf("%s: export table %v lacks strconv", p.Model, pkgs)
		}
		for _, pkg := range banned {
			if slices.Contains(pkgs, pkg) {
				t.Errorf("%s: export table names %s", p.Model, pkg)
			}
		}
	}
}
