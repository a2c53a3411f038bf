package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans nest strictly: the replay
// is single-threaded, so a span's children cover disjoint sub-intervals
// of it and self time is duration minus the children's durations.
type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	parent     int   // index into tracer.spans; -1 for a request root
	req        int   // request id: program index or simulation index
}

// tracer keeps every span in memory; they are written out once the
// traced run ends so file I/O never lands inside a measured span. A nil
// *tracer records nothing, which is how the untraced replay runs the
// same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	req    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// request opens the root span of request req; every span begun until
// the matching end inherits req.
func (t *tracer) request(name string, req int) {
	if t == nil {
		return
	}
	t.req = req
	t.begin(name)
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), end: -1, parent: parent, req: t.req})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = t.now()
}

// layerTimes is the per-layer table derived from the spans.
type layerTimes struct {
	wall         float64            // s, from the first span's start to the last span's end
	self         map[string]float64 // s, per layer name (request roots excluded)
	unattributed float64            // s, request-root self time plus time outside any request
}

// table computes self time per layer. Root spans are the
// requests themselves; their self time is work the replay does between
// layer calls (the L1 memo, loop bookkeeping) and counts as
// unattributed, as does any gap between requests.
func (t *tracer) table() layerTimes {
	lt := layerTimes{self: map[string]float64{}}
	if len(t.spans) == 0 {
		return lt
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	first, last := t.spans[0].start, t.spans[0].end // spans are in start order
	var rootDur int64
	for i, s := range t.spans {
		dur := s.end - s.start
		last = max(last, s.end)
		if s.parent < 0 {
			rootDur += dur
			lt.unattributed += float64(dur-child[i]) / 1e9
			continue
		}
		lt.self[s.name] += float64(dur-child[i]) / 1e9
	}
	lt.wall = float64(last-first) / 1e9
	lt.unattributed += float64(last-first-rootDur) / 1e9
	return lt
}

// checkNesting verifies that every span closed, lies inside its parent
// and carries its parent's request id.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) never closed", i, s.name)
		}
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) escapes its parent %d (%s)", i, s.name, s.parent, p.name)
		}
		if s.req != p.req {
			return fmt.Errorf("span %d (%s) has request %d, its parent %d", i, s.name, s.req, p.req)
		}
	}
	return nil
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format; ts and dur are in microseconds.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
	Req    int `json:"req"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChrome writes the spans as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	tr := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: make([]chromeEvent, len(t.spans))}
	for i, s := range t.spans {
		tr.TraceEvents[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: chromeArgs{ID: i, Parent: s.parent, Req: s.req},
		}
	}
	b, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
