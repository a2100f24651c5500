package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"awra/internal/obs"
)

// span is one timed interval of a traced run. Spans the benchmark
// opens around its own calls into the program carry real start and end
// times. Spans imported from an engine's obs.Recorder carry only
// durations there; they are laid out inside their parent in order
// (siblings that run in parallel share a start), and marked Engine.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	Engine bool   `json:"engine,omitempty"`
}

// parallelSpans are engine spans whose siblings run at the same time.
var parallelSpans = map[string]bool{obs.SpanShard: true}

// tracer keeps a traced run's spans in memory until the run ends. A
// nil tracer records nothing, so untraced runs share the code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Microseconds() }

// start opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now(), End: -1})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

// durationMs is a closed span's length.
func (t *tracer) durationMs(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1000
}

// importEngine adds an engine's span tree under parent, laid out from
// the parent's start.
func (t *tracer) importEngine(parent int, req string, snaps []*obs.SpanSnapshot) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.layout(parent, req, t.spans[parent-1].Start, snaps)
}

func (t *tracer) layout(parent int, req string, at int64, snaps []*obs.SpanSnapshot) {
	cursor := at
	groupStart, groupEnd := int64(-1), int64(0)
	for _, s := range snaps {
		var start int64
		if parallelSpans[s.Name] {
			if groupStart < 0 {
				groupStart, groupEnd = cursor, cursor
			}
			start = groupStart
			groupEnd = max(groupEnd, start+s.DurationUs)
		} else {
			if groupStart >= 0 {
				cursor, groupStart = groupEnd, -1
			}
			start = cursor
			cursor += s.DurationUs
		}
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: s.Name, Start: start, End: start + s.DurationUs, Engine: true})
		t.layout(id, req, start, s.Children)
	}
}

// children indexes spans by parent.
func (t *tracer) children() map[int][]int {
	kids := make(map[int][]int)
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s.ID)
	}
	return kids
}

// selfUs is a span's duration minus the part of it its children cover.
func (t *tracer) selfUs(id int, kids map[int][]int) int64 {
	s := t.spans[id-1]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range kids[id] {
		cs := t.spans[c-1]
		a, b := max(cs.Start, s.Start), min(cs.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return (s.End - s.Start) - covered
}

// descendants lists the IDs under root, depth first.
func descendants(root int, kids map[int][]int) []int {
	var out []int
	var walk func(int)
	walk = func(id int) {
		for _, c := range kids[id] {
			out = append(out, c)
			walk(c)
		}
	}
	walk(root)
	return out
}

// layerDurationsMs sums, per span name, the durations of the spans
// under root (the root excluded).
func (t *tracer) layerDurationsMs(root int) map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64)
	for _, id := range descendants(root, t.children()) {
		s := t.spans[id-1]
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1000)
	}
	return out
}

// selfSumRatio is the sum of the self times of every span under the
// given roots over the roots' summed wall time: how much of the traced
// wall the layer spans account for. Parallel spans can push it past 1.
func (t *tracer) selfSumRatio(roots []int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := t.children()
	var self, wall int64
	for _, r := range roots {
		rs := t.spans[r-1]
		wall += rs.End - rs.Start
		for _, id := range descendants(r, kids) {
			self += t.selfUs(id, kids)
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(self) / float64(wall)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
