package codegen_test

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/opt"
	"accmos/internal/testcase"
)

var (
	alwaysRunTable = regexp.MustCompile(`(?s)\nvar alwaysRun = \[(\d+)\]int32\{(.*?)\}\n`)
	actorStore     = regexp.MustCompile(`^(\t+)actorBitmap\[(\d+)\] = 1$`)
)

// TestTable1ActorMarksLeaveTheStep pins where the ten Table-1 programs
// mark actor coverage, with coverage on, at O1 and O2, diagnosis off and
// on. modelExe holds no top-level actorBitmap store. The alwaysRun table
// lists exactly the ungated actors in schedule order, O2's fused and root
// actors included, and modelRun sets their bits after its stop check and
// before its step loop. Every gated actor keeps its one store inside its
// own gate.
func TestTable1ActorMarksLeaveTheStep(t *testing.T) {
	for _, name := range benchmodels.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := actors.Compile(benchmodels.MustBuild(name))
			if err != nil {
				t.Fatal(err)
			}
			for _, lvl := range []opt.Level{opt.O1, opt.O2} {
				for _, diag := range []bool{false, true} {
					or, err := opt.Optimize(c, opt.Options{Level: lvl, Coverage: true, Diagnose: diag})
					if err != nil {
						t.Fatal(err)
					}
					p, err := codegen.Generate(or.Compiled, codegen.Options{
						Coverage: true, Diagnose: diag,
						TestCases: testcase.NewRandomSet(len(c.Inports), 201, -1, 1),
						Layout:    or.Layout, Premark: or.Premark, Opt: lvl.String(), Plan: or.Plan,
					})
					if err != nil {
						t.Fatal(err)
					}
					label := lvl.String() + " diagnose=" + strconv.FormatBool(diag)
					checkActorMarks(t, label, or, p.Source)
				}
			}
		})
	}
}

// checkActorMarks checks one generated source against the optimized
// model it came from (see TestTable1ActorMarksLeaveTheStep).
func checkActorMarks(t *testing.T, label string, or *opt.Result, src string) {
	t.Helper()
	var want []int
	gated := map[int]*actors.Info{}
	planned := 0 // O2 fused and root actors
	for _, info := range or.Compiled.Order {
		idx := or.Layout.ActorIndex[info.Actor.Name]
		if info.Gated() {
			gated[idx] = info
			continue
		}
		want = append(want, idx)
		if p := or.Plan; p != nil && (p.Inlined[info.Actor.Name] || p.Roots[info.Actor.Name] != nil) {
			planned++
		}
	}
	if or.Plan != nil && planned == 0 {
		t.Errorf("%s: the plan fused no actor and materialized no root; the check would not cover them", label)
	}

	m := alwaysRunTable.FindStringSubmatch(src)
	if m == nil {
		t.Fatalf("%s: no alwaysRun table", label)
	}
	var got []int
	for _, f := range strings.Fields(strings.ReplaceAll(m[2], ",", " ")) {
		n, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("%s: alwaysRun entry %q: %v", label, f, err)
		}
		got = append(got, n)
	}
	if m[1] != strconv.Itoa(len(got)) || !slices.Equal(got, want) {
		t.Errorf("%s: alwaysRun [%s] lists %v, want the %d ungated actors %v", label, m[1], got, len(want), want)
	}

	run := src[strings.Index(src, "\nfunc modelRun("):]
	stop := strings.Index(run, "\tif stopRequested {\n\t\treturn from\n\t}\n")
	marks := strings.Index(run, "\tfor _, i := range alwaysRun {\n\t\tactorBitmap[i] = 1\n\t}\n")
	loop := strings.Index(run, "\tfor step := from; step < to; step++ {\n")
	if stop < 0 || marks < stop || loop < marks {
		t.Errorf("%s: modelRun does not mark alwaysRun between its stop check and its step loop:\n%s", label, run)
	}

	start := strings.Index(src, "\nfunc modelExe(")
	body := src[start : start+strings.Index(src[start:], "\n}\n")]
	stored := map[int]int{}
	var block []string // the open top-level if block, or nil
	for _, line := range strings.Split(body, "\n") {
		switch {
		case block == nil && strings.HasPrefix(line, "\tif ") && strings.HasSuffix(line, " {"):
			block = []string{line}
			continue
		case block != nil && line == "\t}":
			block = nil
			continue
		case block != nil:
			block = append(block, line)
		}
		sm := actorStore.FindStringSubmatch(line)
		if sm == nil {
			continue
		}
		idx, _ := strconv.Atoi(sm[2])
		info := gated[idx]
		switch {
		case block == nil || len(sm[1]) < 2:
			t.Errorf("%s: modelExe stores actorBitmap[%d] at its top level", label, idx)
		case info == nil:
			t.Errorf("%s: modelExe stores actorBitmap[%d], which is not a gated actor's", label, idx)
		case !strings.Contains(strings.Join(block, "\n"), "// -- "+info.Path+" ("):
			t.Errorf("%s: actorBitmap[%d] is stored inside a gate that does not hold %s", label, idx, info.Path)
		}
		stored[idx]++
	}
	for idx, info := range gated {
		if stored[idx] != 1 {
			t.Errorf("%s: gated actor %s is marked %d times in modelExe, want once", label, info.Path, stored[idx])
		}
	}
}
