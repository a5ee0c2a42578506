package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string
	ID     string // the seed, schedule or request the call served
	Start  time.Time
	End    time.Time
	Parent int
	Lane   int // the worker or connection that made the call
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name, id string, parent, lane int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Start: time.Now(), Parent: parent, Lane: lane})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return t.spans[i].dur()
}

// add records a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name, id string, parent, lane int, fn func()) time.Duration {
	i := t.begin(name, id, parent, lane)
	fn()
	return t.end(i)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children, such as
// the calls of two workers under one sweep span, are merged first so
// that no instant is subtracted twice, and children are clipped to the
// parent's interval.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var cur iv
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case !v.a.After(cur.b):
				if v.b.After(cur.b) {
					cur.b = v.b
				}
			default:
				covered += cur.b.Sub(cur.a)
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b.Sub(cur.a)
		}
		out[i] = s.dur() - covered
	}
	return out
}

// spanTotals is the per-name ledger of a trace: call count and total
// self time.
type spanTotals struct {
	Name  string
	Calls int
	Self  time.Duration
}

func totalsByName(spans []span) []spanTotals {
	self := selfTimes(spans)
	byName := map[string]*spanTotals{}
	var order []string
	for i, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		t.Calls++
		t.Self += self[i]
	}
	out := make([]spanTotals, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// chromeEvent is one Chrome trace_event record, the format the
// repository's simulator traces use, so Perfetto opens both alike.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as complete ("X") events with
// microsecond timestamps relative to the first span.
func writeChrome(path string, spans []span) error {
	var base time.Time
	for _, s := range spans {
		if base.IsZero() || s.Start.Before(base) {
			base = s.Start
		}
	}
	usOf := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		args := map[string]any{"span": i}
		if s.ID != "" {
			args["id"] = s.ID
		}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		events = append(events, chromeEvent{Name: s.Name, Cat: "perfbench", Ph: "X",
			TS: usOf(s.Start.Sub(base)), Dur: usOf(s.dur()), Pid: 1, Tid: s.Lane, Args: args})
	}
	b, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
