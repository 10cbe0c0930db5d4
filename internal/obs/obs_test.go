package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	outer := tr.Start("simulate")
	inner := tr.Start("schedule")
	inner.End()
	gen := tr.Start("generate")
	gen.End()
	outer.End()
	top := tr.Start("report")
	top.End()

	trace := tr.Trace()
	if len(trace.Spans) != 2 {
		t.Fatalf("want 2 root spans, got %d", len(trace.Spans))
	}
	sim := trace.Spans[0]
	if sim.Name != "simulate" || len(sim.Children) != 2 {
		t.Fatalf("root span: %+v", sim)
	}
	if sim.Children[0].Name != "schedule" || sim.Children[1].Name != "generate" {
		t.Errorf("children: %q, %q", sim.Children[0].Name, sim.Children[1].Name)
	}
	for _, s := range []*Span{sim, sim.Children[0], sim.Children[1], trace.Spans[1]} {
		if s.EndNanos < s.StartNanos {
			t.Errorf("span %s not closed: start %d end %d", s.Name, s.StartNanos, s.EndNanos)
		}
	}
	// Children are contained within the parent's interval.
	for _, c := range sim.Children {
		if c.StartNanos < sim.StartNanos || c.EndNanos > sim.EndNanos {
			t.Errorf("child %s [%d,%d] outside parent [%d,%d]",
				c.Name, c.StartNanos, c.EndNanos, sim.StartNanos, sim.EndNanos)
		}
	}
}

func TestTracerEndClosesAbandonedChildren(t *testing.T) {
	tr := NewTracer()
	outer := tr.Start("outer")
	tr.Start("leaked") // never explicitly ended (error-path shape)
	outer.End()
	sp := tr.Trace().Find("leaked")
	if len(sp) != 1 || sp[0].EndNanos < 0 {
		t.Fatalf("leaked span not implicitly closed: %+v", sp)
	}
	if len(tr.Trace().Find("outer")) != 1 {
		t.Fatal("outer span missing")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Start("x").End() // must not panic
	if got := tr.Trace(); len(got.Spans) != 0 {
		t.Errorf("nil tracer trace: %+v", got)
	}
	if tr.Summary() != "" {
		t.Errorf("nil tracer summary: %q", tr.Summary())
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("parse")
	tr.Start("inner").End()
	s.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Trace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(tr.Trace())
	again, _ := json.Marshal(&got)
	if string(want) != string(again) {
		t.Errorf("round trip changed trace:\n%s\n%s", want, again)
	}
	if len(got.Find("inner")) != 1 {
		t.Error("nested span lost in round trip")
	}
}

// TestTraceTotals: Totals sums span durations by name across depths.
func TestTraceTotals(t *testing.T) {
	tr := &Trace{Spans: []*Span{
		{Name: "compile", StartNanos: 0, EndNanos: 10, Children: []*Span{
			{Name: "compile.gc", StartNanos: 0, EndNanos: 4},
			{Name: "compile.gc", StartNanos: 4, EndNanos: 7},
		}},
		{Name: "run", StartNanos: 10, EndNanos: 15},
		{Name: "open", StartNanos: 15, EndNanos: -1},
	}}
	got := tr.Totals()
	want := map[string]int64{"compile": 10, "compile.gc": 7, "run": 5, "open": 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Totals = %v, want %v", got, want)
	}
}

func TestSummary(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("compile")
	tr.Start("link").End()
	s.End()
	sum := tr.Summary()
	if !strings.Contains(sum, "compile") || !strings.Contains(sum, "  link") {
		t.Errorf("summary missing or unindented spans:\n%s", sum)
	}
}

func TestParseHeartbeat(t *testing.T) {
	line := []byte(`{"accmosHB":1,"model":"SPV","engine":"AccMoS","steps":2048,"elapsedNanos":1000000,"stepsPerSec":2048000,"coverage":55.5,"diags":3,"final":true}`)
	s, ok := ParseHeartbeat(line)
	if !ok {
		t.Fatal("heartbeat not recognised")
	}
	if s.Model != "SPV" || s.Engine != "AccMoS" || s.Steps != 2048 ||
		s.Coverage != 55.5 || s.Diags != 3 || !s.Final {
		t.Errorf("decoded: %+v", s)
	}
	if s.Elapsed() != time.Millisecond {
		t.Errorf("elapsed: %v", s.Elapsed())
	}

	for _, bad := range []string{
		"panic: runtime error",
		`{"model":"SPV"}`,
		`{"accmosHB":1,"steps":"not a number"}`,
		"",
	} {
		if _, ok := ParseHeartbeat([]byte(bad)); ok {
			t.Errorf("non-heartbeat accepted: %q", bad)
		}
	}
}

func TestSnapshotHeartbeatRoundTrip(t *testing.T) {
	// A snapshot marshalled with the accmosHB marker must parse back —
	// the host-side contract the generated emitter mirrors.
	s := Snapshot{Model: "M", Engine: "AccMoS", Steps: 7, ElapsedNanos: 9,
		StepsPerSec: 777.5, Coverage: -1, Diags: 2}
	b, err := json.Marshal(struct {
		HB int `json:"accmosHB"`
		Snapshot
	}{1, s})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ParseHeartbeat(b)
	if !ok || got != s {
		t.Errorf("round trip: ok=%v got=%+v want=%+v", ok, got, s)
	}
}

func TestReporterThrottleAndFinal(t *testing.T) {
	var seen []Snapshot
	r := NewReporter("M", "SSE", time.Hour, func(s Snapshot) { seen = append(seen, s) })
	lazyCalls := 0
	for i := int64(0); i < 100; i++ {
		r.MaybeTick(i, func() (float64, int64) { lazyCalls++; return 10, 0 })
	}
	if lazyCalls != 0 || len(seen) != 0 {
		t.Errorf("interval not honoured: %d lazy calls, %d snapshots", lazyCalls, len(seen))
	}
	r.Final(100, 42.0, 5)
	if len(seen) != 1 || !seen[0].Final || seen[0].Steps != 100 || seen[0].Coverage != 42.0 {
		t.Errorf("final snapshot: %+v", seen)
	}
	if len(r.Timeline) != 1 {
		t.Errorf("timeline: %+v", r.Timeline)
	}
}

func TestReporterTicksWhenDue(t *testing.T) {
	r := NewReporter("M", "AccMoS", time.Nanosecond, nil)
	time.Sleep(time.Millisecond)
	r.MaybeTick(10, func() (float64, int64) { return 1, 0 })
	time.Sleep(time.Millisecond)
	r.MaybeTick(20, func() (float64, int64) { return 2, 1 })
	r.Final(30, 3, 2)
	if len(r.Timeline) != 3 {
		t.Fatalf("timeline: %+v", r.Timeline)
	}
	for i := 1; i < len(r.Timeline); i++ {
		prev, cur := r.Timeline[i-1], r.Timeline[i]
		if cur.Steps < prev.Steps || cur.Coverage < prev.Coverage || cur.ElapsedNanos < prev.ElapsedNanos {
			t.Errorf("timeline not monotone at %d: %+v -> %+v", i, prev, cur)
		}
	}
	if r.Timeline[0].StepsPerSec <= 0 {
		t.Errorf("steps/sec: %+v", r.Timeline[0])
	}
}

func TestNilReporterIsSafe(t *testing.T) {
	var r *Reporter
	r.MaybeTick(1, func() (float64, int64) { t.Fatal("lazy called on nil reporter"); return 0, 0 })
	r.Final(1, 0, 0)
}
