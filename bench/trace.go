package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root); spans of one repetition share Rep.
// Computed marks a span whose extent was derived from unit costs and
// counts instead of being observed (the probe/fold split inside a
// pipelined round).
type span struct {
	Name     string
	Start    time.Duration // since the tracer's origin
	End      time.Duration
	Parent   int
	Rep      int
	Computed bool
}

// tracer keeps spans in memory until the run ends. With on == false
// begin and end cost one branch, so the untraced run pays nothing; the
// harness times every phase with its own clock reads either way, and
// the tracer only adds the record.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, rep int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Rep: rep})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span with a known extent, for intervals that are
// computed rather than observed.
func (t *tracer) add(s span) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs f inside a span and returns f's wall time. It is the one
// place the harness times a layer call, traced or not.
func (t *tracer) call(name string, parent, rep int, f func()) time.Duration {
	id := t.begin(name, parent, rep)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover. Overlapping children are counted once.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered, edge time.Duration
	edge = p.Start
	for _, k := range kids {
		if k.lo > edge {
			edge = k.lo
		}
		if k.hi > edge {
			covered += k.hi - edge
			edge = k.hi
		}
	}
	return (p.End - p.Start) - covered
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto). Each repetition is its own track.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
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
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Rep,
			Args: map[string]any{
				"id": i, "parent": s.Parent, "rep": s.Rep, "computed": s.Computed,
				"self_us": float64(selfTime(spans, i)) / float64(time.Microsecond),
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
