package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call. Parent is the enclosing span's ID (-1 for
// a root); Design names the design job the span belongs to ("" for
// phase spans), so every span of one design shares that ID.
type span struct {
	Name       string
	Parent     int
	Design     string
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; they are written once, at exit. Span IDs
// are indices into spans. Untraced runs use a nil *tracer, whose begin
// and end record nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a span whose times the caller gives.
func (t *tracer) add(name string, parent int, design string, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Design: design, Start: start, End: end})
	return len(t.spans) - 1
}

// reserve allocates a span whose times are filled in later (closeOver).
func (t *tracer) reserve(name string, parent int, design string) int {
	return t.add(name, parent, design, 0, 0)
}

// begin opens a span now; end closes it. On a nil tracer both do
// nothing, and begin returns -1.
func (t *tracer) begin(name string, parent int, design string) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, design, t.now(), 0)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span, which closes even if fn panics (the
// runner turns a panicking job into an errored outcome).
func (t *tracer) timed(name string, parent int, design string, fn func()) {
	defer t.end(t.begin(name, parent, design))
	fn()
}

// closeOver sets a reserved span to [start, end], widened to cover its
// children, which are recorded after it.
func (t *tracer) closeOver(id int, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans[id+1:] {
		if s.Parent == id {
			start, end = min(start, s.Start), max(end, s.End)
		}
	}
	t.spans[id].Start, t.spans[id].End = start, end
}

// len reports how many spans exist; spans recorded after a call have
// IDs >= the returned value.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the spans with IDs in [from, to).
func (t *tracer) snapshot(from, to int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[from:to]...)
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layerTime is one span name's total and self time over a span set.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes sums each span name's duration and self time: its duration
// minus the union of its children's intervals (children of a phase span
// run concurrently on the worker pool, so they may overlap). spans must
// be a contiguous ID range starting at base.
func selfTimes(spans []span, base int) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= base {
			children[s.Parent-base] = append(children[s.Parent-base], s)
		}
	}
	byName := map[string]*layerTime{}
	var order []string
	for i, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - union(children[i])
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// union is the total length covered by the spans' intervals.
func union(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	ss = append([]span(nil), ss...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total time.Duration
	cur := ss[0]
	for _, s := range ss[1:] {
		if s.Start > cur.End {
			total += cur.dur()
			cur = s
		} else if s.End > cur.End {
			cur.End = s.End
		}
	}
	return total + cur.dur()
}

// nestingErrors returns a description of every span that does not lie
// within its parent's interval, or that never closed.
func nestingErrors(spans []span, base int) []string {
	var errs []string
	for _, s := range spans {
		if s.End < s.Start || (s.End == 0 && s.Start == 0) {
			errs = append(errs, s.Name+" "+s.Design+": not closed")
			continue
		}
		if s.Parent < base {
			continue
		}
		p := spans[s.Parent-base]
		if s.Start < p.Start || s.End > p.End {
			errs = append(errs, s.Name+" "+s.Design+": outside parent "+p.Name+" "+p.Design)
		}
	}
	return errs
}

// laneSpans are the spans that run concurrently on the worker pool; each
// gets a Chrome-trace thread lane, and its descendants inherit it.
var laneSpans = map[string]bool{"eval.design": true}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly. Phase spans sit on thread 0; concurrent design work is
// packed greedily onto threads 1..n so that events on one thread nest.
func writeChrome(path string, spans []span) error {
	lane := make([]int, len(spans))
	var laneEnd []time.Duration
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	for _, i := range idx {
		s := spans[i]
		if !laneSpans[s.Name] {
			continue
		}
		l := 0
		for l < len(laneEnd) && laneEnd[l] > s.Start {
			l++
		}
		if l == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[l] = s.End
		lane[i] = l + 1
	}
	// A parent's ID is always below its children's (design spans are
	// reserved before their job starts), so one pass fills the lanes.
	for i, s := range spans {
		if lane[i] == 0 && s.Parent >= 0 {
			lane[i] = lane[s.Parent]
		}
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: "e2ebench", Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: lane[i],
			Args: map[string]any{"id": i, "parent": s.Parent, "design": s.Design},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
