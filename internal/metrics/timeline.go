package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"weakorder/internal/sim"
)

// Timeline is the one record of when things happen in a run. Components
// own a Track each — one timeline row — and record what they were doing
// as [start, end) spans (a processor stalled on a fence, a directory
// line pending) and point-in-time instants (an op commit, a dropped
// message). It exports as Chrome trace_event JSON (chrome://tracing,
// Perfetto) or as a text table of its instants.
//
// Like the registry's instruments, a nil *Timeline hands out nil
// *Tracks, and every Track method is a no-op on a nil receiver, so
// recording sites need no enabled/disabled branches. Recording never
// draws RNG or schedules events; it cannot perturb the simulation.
type Timeline struct {
	tracks []*Track
	marks  uint64 // instants recorded so far, across all tracks
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{}
}

// Track registers a named timeline row (nil on a nil timeline). Tracks
// are exported in registration order, so register them deterministically
// (the machine registers processors then directories by index).
func (tl *Timeline) Track(name string) *Track {
	if tl == nil {
		return nil
	}
	t := &Track{tl: tl, name: name, tid: len(tl.tracks) + 1}
	tl.tracks = append(tl.tracks, t)
	return t
}

// Close ends any open span on every track at the given time. Call once
// when the run finishes so in-progress stalls still appear.
func (tl *Timeline) Close(at sim.Time) {
	if tl == nil {
		return
	}
	for _, t := range tl.tracks {
		t.End(at)
	}
}

// span is one completed [start, end) interval on a track.
type span struct {
	name       string
	start, end sim.Time
}

// instant is a point event on a track. seq is its place in the
// timeline-wide recording order, which WriteText follows across tracks.
type instant struct {
	name string
	at   sim.Time
	seq  uint64
}

// Track is one timeline row. Methods are no-ops on a nil receiver.
type Track struct {
	tl       *Timeline
	name     string
	tid      int
	spans    []span
	instants []instant

	openName string
	openAt   sim.Time
	open     bool
}

// Span records a completed [start, end) interval. Zero-length spans are
// dropped (they render invisibly and only bloat the export).
func (t *Track) Span(name string, start, end sim.Time) {
	if t == nil || end <= start {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end})
}

// Begin opens a span at the given time, ending any previously open span
// there first. Tracks carry at most one open span — exactly the shape of
// a processor's stall state.
func (t *Track) Begin(name string, at sim.Time) {
	if t == nil {
		return
	}
	t.End(at)
	t.openName = name
	t.openAt = at
	t.open = true
}

// End closes the open span (if any) at the given time.
func (t *Track) End(at sim.Time) {
	if t == nil || !t.open {
		return
	}
	t.Span(t.openName, t.openAt, at)
	t.open = false
}

// Mark records an instant event.
func (t *Track) Mark(name string, at sim.Time) {
	if t == nil {
		return
	}
	t.instants = append(t.instants, instant{name: name, at: at, seq: t.tl.marks})
	t.tl.marks++
}

// traceEvent is one entry in the Chrome trace_event "traceEvents" array.
// Simulated cycles are exported as microseconds (the format's time unit),
// so one cycle renders as 1µs in Perfetto.
type traceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	S     string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
	order int            // recording order within the track, sort tie-break
}

// WriteChromeTrace streams the timeline to w as Chrome trace_event JSON
// ({"traceEvents": [...]}). The output is deterministic: thread-name
// metadata first in track registration order, then spans and instants
// sorted by (track, timestamp, recording order). Events are encoded and
// written one line at a time, with at most one track's events buffered
// for sorting — a long simulation's trace never materializes in memory.
// Load the file in chrome://tracing or https://ui.perfetto.dev.
func (tl *Timeline) WriteChromeTrace(w io.Writer) error {
	if tl == nil {
		return fmt.Errorf("metrics: WriteChromeTrace on a nil timeline")
	}
	total := len(tl.tracks)
	for _, t := range tl.tracks {
		total += len(t.spans) + len(t.instants)
	}
	if _, err := io.WriteString(w, "{\"traceEvents\": [\n"); err != nil {
		return err
	}
	emitted := 0
	var line []byte
	emit := func(ev *traceEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		line = append(line[:0], "  "...)
		line = append(line, b...)
		emitted++
		if emitted < total {
			line = append(line, ',')
		}
		line = append(line, '\n')
		_, err = w.Write(line)
		return err
	}
	for _, t := range tl.tracks {
		err := emit(&traceEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  1,
			Tid:  t.tid,
			Args: map[string]any{"name": t.name},
		})
		if err != nil {
			return err
		}
	}
	var body []traceEvent // reused across tracks
	for _, t := range tl.tracks {
		body = body[:0]
		for i, s := range t.spans {
			dur := uint64(s.end - s.start)
			body = append(body, traceEvent{
				Name: s.name, Ph: "X", Ts: uint64(s.start), Dur: &dur,
				Pid: 1, Tid: t.tid, Cat: "span", order: i,
			})
		}
		for i, in := range t.instants {
			body = append(body, traceEvent{
				Name: in.name, Ph: "i", Ts: uint64(in.at),
				Pid: 1, Tid: t.tid, S: "t", Cat: "instant",
				order: len(t.spans) + i,
			})
		}
		sort.SliceStable(body, func(i, j int) bool {
			a, b := body[i], body[j]
			if a.Ts != b.Ts {
				return a.Ts < b.Ts
			}
			return a.order < b.order
		})
		for i := range body {
			if err := emit(&body[i]); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "], \"displayTimeUnit\": \"ms\"}\n")
	return err
}

// ChromeTrace renders the timeline as one in-memory byte slice — a
// convenience wrapper over WriteChromeTrace for small traces and tests.
// Callers exporting a full simulation should stream with WriteChromeTrace
// instead.
func (tl *Timeline) ChromeTrace() ([]byte, error) {
	if tl == nil {
		return nil, fmt.Errorf("metrics: ChromeTrace on a nil timeline")
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteText renders the timeline's instants as a text table: one column
// per track that records instants, headed by the track's name, and one
// row per instant, stamped with its time, in recording order across
// tracks. Tracks holding only spans get no column. maxRows > 0 truncates
// the table after that many rows.
func (tl *Timeline) WriteText(w io.Writer, maxRows int) error {
	if tl == nil {
		return fmt.Errorf("metrics: WriteText on a nil timeline")
	}
	type row struct {
		col int
		in  instant
	}
	var cols []string
	var rows []row
	for _, t := range tl.tracks {
		if len(t.instants) == 0 {
			continue
		}
		for _, in := range t.instants {
			rows = append(rows, row{col: len(cols), in: in})
		}
		cols = append(cols, t.name)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].in.seq < rows[j].in.seq })
	truncated := maxRows > 0 && len(rows) > maxRows
	if truncated {
		rows = rows[:maxRows]
	}

	// cells[0] is the stamp column; cells[1+i] is track column i.
	cells := append([]string{"cycle"}, cols...)
	widths := make([]int, len(cells))
	for i, c := range cells {
		widths[i] = len(c)
	}
	for _, r := range rows {
		widths[0] = max(widths[0], len(strconv.FormatUint(uint64(r.in.at), 10)))
		widths[1+r.col] = max(widths[1+r.col], len(r.in.name))
	}
	bw := bufio.NewWriter(w)
	var ln []byte
	line := func() {
		ln = ln[:0]
		for i, c := range cells {
			ln = fmt.Appendf(ln, "%-*s", widths[i]+2, c)
		}
		ln = append(bytes.TrimRight(ln, " "), '\n')
		bw.Write(ln) //nolint:errcheck // bufio keeps the first error for Flush
	}
	line()
	for i := range cells {
		cells[i] = strings.Repeat("-", widths[i])
	}
	line()
	for _, r := range rows {
		for i := range cells {
			cells[i] = ""
		}
		cells[0] = strconv.FormatUint(uint64(r.in.at), 10)
		cells[1+r.col] = r.in.name
		line()
	}
	if truncated {
		bw.WriteString("... (truncated)\n") //nolint:errcheck // as above
	}
	return bw.Flush()
}

// SpanCount returns the total number of completed spans (0 on nil) —
// used by tests and the schema checker.
func (tl *Timeline) SpanCount() int {
	if tl == nil {
		return 0
	}
	n := 0
	for _, t := range tl.tracks {
		n += len(t.spans)
	}
	return n
}
