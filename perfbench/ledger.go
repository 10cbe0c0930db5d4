package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// A ledger records spans around the benchmark's calls into each layer's
// public functions, timed from outside the layer. Spans stay in memory
// and are written as JSON when the run ends. A nil *ledger records
// nothing, so traced and untraced code share call sites.
type ledger struct {
	mu    sync.Mutex
	t0    time.Time
	tag   string // "workload" for the workload's own jobs, "probe" after
	spans []*span
	// counts accumulates event counts per tag, recorded at the same
	// boundaries as the spans.
	counts map[string]map[string]float64
}

type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Tag    string             `json:"tag"`
	Start  int64              `json:"startNanos"`
	End    int64              `json:"endNanos"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Model  string             `json:"model,omitempty"`
	led    *ledger
}

func newLedger() *ledger {
	return &ledger{t0: time.Now(), tag: "workload", counts: map[string]map[string]float64{}}
}

// add counts n events called name.
func (l *ledger) add(name string, n float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counts[l.tag] == nil {
		l.counts[l.tag] = map[string]float64{}
	}
	l.counts[l.tag][name] += n
}

// count returns the workload's count of the named events when the
// workload recorded that count, else the probe's.
func (l *ledger) count(name string) float64 {
	if n, ok := l.counts["workload"][name]; ok {
		return n
	}
	return l.counts["probe"][name]
}

func (l *ledger) setTag(tag string) {
	if l != nil {
		l.mu.Lock()
		l.tag = tag
		l.mu.Unlock()
	}
}

// start opens a span named after the layer function it times.
func (l *ledger) start(parent *span, name, model string) *span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &span{ID: len(l.spans) + 1, Name: name, Tag: l.tag, Model: model, Start: int64(time.Since(l.t0)), led: l}
	if parent != nil {
		s.Parent = parent.ID
	}
	l.spans = append(l.spans, s)
	return s
}

func (s *span) end() {
	if s != nil {
		s.led.mu.Lock()
		s.End = int64(time.Since(s.led.t0))
		s.led.mu.Unlock()
	}
}

func (s *span) set(k string, v float64) {
	if s != nil {
		s.led.mu.Lock()
		if s.Attrs == nil {
			s.Attrs = make(map[string]float64)
		}
		s.Attrs[k] = v
		s.led.mu.Unlock()
	}
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// find returns the closed spans called name: the workload's own when it
// made any such call, else the probe's.
func (l *ledger) find(name string, keep func(*span) bool) []*span {
	var own, probed []*span
	for _, s := range l.spans {
		if s.Name != name || s.End == 0 || (keep != nil && !keep(s)) {
			continue
		}
		if s.Tag == "workload" {
			own = append(own, s)
		} else {
			probed = append(probed, s)
		}
	}
	if len(own) > 0 {
		return own
	}
	return probed
}

// selfTime returns a span's duration minus the part its direct children
// cover (children of one span may overlap; their union is subtracted).
func (l *ledger) selfTime(parent *span) time.Duration {
	var kids [][2]int64
	for _, s := range l.spans {
		if s.Parent == parent.ID {
			kids = append(kids, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, reach := int64(0), int64(math.MinInt64)
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
		}
		reach = max(reach, k[1])
	}
	return parent.dur() - time.Duration(covered)
}

func (l *ledger) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []*span `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
