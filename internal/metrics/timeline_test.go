package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"weakorder/internal/sim"
)

func TestTrackSpans(t *testing.T) {
	tl := NewTimeline()
	tr := tl.Track("proc 0")

	tr.Begin("stall:fence", 10)
	tr.End(25)
	tr.Begin("stall:read", 30)
	// Begin with an open span ends it first.
	tr.Begin("stall:sync", 40)
	tr.Span("", 50, 50) // zero-length: dropped
	tr.Mark("commit", 12)
	tl.Close(60)

	if got := tl.SpanCount(); got != 3 {
		t.Fatalf("SpanCount = %d, want 3", got)
	}
	want := []span{
		{"stall:fence", 10, 25},
		{"stall:read", 30, 40},
		{"stall:sync", 40, 60},
	}
	for i, w := range want {
		if tr.spans[i] != w {
			t.Errorf("span[%d] = %+v, want %+v", i, tr.spans[i], w)
		}
	}
	// Close on an idle track is a no-op.
	tl.Close(70)
	if tl.SpanCount() != 3 {
		t.Error("Close must not add spans to idle tracks")
	}
}

func TestChromeTraceShape(t *testing.T) {
	tl := NewTimeline()
	p0 := tl.Track("proc 0")
	d0 := tl.Track("dir 0")
	p0.Span("stall:fence", 5, 9)
	d0.Span("pending:0x40", 2, 8)
	p0.Mark("commit W x", 9)

	out, err := tl.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   uint64  `json:"ts"`
			Dur  *uint64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5 (2 metadata + 2 spans + 1 instant)", len(doc.TraceEvents))
	}
	// Metadata first, in registration order.
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Tid != 1 ||
		doc.TraceEvents[1].Ph != "M" || doc.TraceEvents[1].Tid != 2 {
		t.Errorf("metadata events malformed: %+v", doc.TraceEvents[:2])
	}
	// Body grouped by track: proc 0's span+instant, then dir 0's span.
	if doc.TraceEvents[2].Name != "stall:fence" || doc.TraceEvents[2].Ph != "X" ||
		doc.TraceEvents[2].Dur == nil || *doc.TraceEvents[2].Dur != 4 {
		t.Errorf("span event malformed: %+v", doc.TraceEvents[2])
	}
	if doc.TraceEvents[3].Name != "commit W x" || doc.TraceEvents[3].Ph != "i" {
		t.Errorf("instant event malformed: %+v", doc.TraceEvents[3])
	}
	if doc.TraceEvents[4].Tid != 2 {
		t.Errorf("dir event on wrong track: %+v", doc.TraceEvents[4])
	}
}

// recordingWriter counts writes and tracks the largest single chunk —
// the streaming contract is that the exporter never hands the writer the
// whole trace at once.
type recordingWriter struct {
	buf      bytes.Buffer
	writes   int
	maxChunk int
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) > w.maxChunk {
		w.maxChunk = len(p)
	}
	return w.buf.Write(p)
}

// TestWriteChromeTraceStreams: the streaming writer produces bytes
// identical to ChromeTrace, one bounded write per event rather than a
// single whole-trace write.
func TestWriteChromeTraceStreams(t *testing.T) {
	tl := NewTimeline()
	tracks := []*Track{tl.Track("p0"), tl.Track("p1"), tl.Track("d0")}
	for ti, tr := range tracks {
		for i := 0; i < 200; i++ {
			start := uint64(ti*7 + i*3)
			tr.Span("stall:fence", sim.Time(start), sim.Time(start+2))
			tr.Mark("commit", sim.Time(start+1))
		}
	}
	want, err := tl.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var rw recordingWriter
	if err := tl.WriteChromeTrace(&rw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rw.buf.Bytes(), want) {
		t.Fatal("streamed trace differs from ChromeTrace bytes")
	}
	// 3 metadata + 1200 events + header/footer: one write each.
	if wantWrites := 3 + 3*400 + 2; rw.writes != wantWrites {
		t.Errorf("writes = %d, want %d (one per event plus header/footer)", rw.writes, wantWrites)
	}
	// No single write may approach the trace size; a generous per-line
	// bound catches any regression back to whole-trace buffering.
	if rw.maxChunk > 512 {
		t.Errorf("largest single write = %d bytes; exporter is buffering, not streaming", rw.maxChunk)
	}
	if rw.maxChunk >= rw.buf.Len() {
		t.Errorf("a single write carried the whole %d-byte trace", rw.buf.Len())
	}
}

func TestWriteChromeTraceNil(t *testing.T) {
	var tl *Timeline
	if err := tl.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteChromeTrace on a nil timeline must error")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() *Timeline {
		tl := NewTimeline()
		a := tl.Track("a")
		b := tl.Track("b")
		b.Span("s2", 3, 7)
		a.Span("s1", 1, 4)
		a.Mark("m", 2)
		return tl
	}
	o1, err := build().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	o2, err := build().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o1, o2) {
		t.Error("equal timelines must export identical bytes")
	}
}

// textLines renders the timeline as text and splits it into lines.
func textLines(t *testing.T, tl *Timeline, maxRows int) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.WriteText(&buf, maxRows); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

// TestWriteTextRendering: one column per track that records instants,
// headed by its name; every instant is a row stamped with its time, its
// name in its track's column; span-only tracks get no column; maxRows
// truncates and says so.
func TestWriteTextRendering(t *testing.T) {
	tl := NewTimeline()
	p0 := tl.Track("proc 0")
	p1 := tl.Track("proc 1")
	d0 := tl.Track("dir 0")
	p0.Mark("P0.0:W[data]=42", 22)
	d0.Span("pending:GetX", 20, 30)
	p1.Mark("P1.0:SR[flag]->1", 31)
	p1.Mark("P1.1:R[data]->42", 1007)

	want := []string{
		"cycle  proc 0           proc 1",
		"-----  ---------------  ----------------",
		"22     P0.0:W[data]=42",
		"31                      P1.0:SR[flag]->1",
		"1007                    P1.1:R[data]->42",
	}
	if got := textLines(t, tl, 0); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("text rendering:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	short := textLines(t, tl, 2)
	if len(short) != 5 || short[4] != "... (truncated)" || !strings.HasPrefix(short[3], "31 ") {
		t.Errorf("maxRows=2 rendering:\n%s", strings.Join(short, "\n"))
	}
	if got := textLines(t, tl, 3); got[len(got)-1] == "... (truncated)" {
		t.Error("a table that fits in maxRows must not say it was truncated")
	}
	if err := (*Timeline)(nil).WriteText(&bytes.Buffer{}, 0); err == nil {
		t.Error("WriteText on a nil timeline must error")
	}
}

// TestWriteTextInterleaving: rows follow the timeline-wide recording
// order, so an instant on one track lands between the instants recorded
// before and after it on another, and a same-cycle tie keeps the order
// in which the two were recorded.
func TestWriteTextInterleaving(t *testing.T) {
	tl := NewTimeline()
	p0 := tl.Track("proc 0")
	f := tl.Track("faults")
	f.Mark("DROP GetX 0->3", 4)
	p0.Mark("P0.0:W[x]=1", 9)
	f.Mark("DELAY GetS 0->2 +12", 9) // same cycle, recorded after the commit
	f.Mark("RETRY GetX 0->3 attempt=1", 12)
	p0.Mark("P0.1:R[x]->1", 12) // same cycle, recorded after the retry

	got := textLines(t, tl, 0)
	if got[0] != "cycle  proc 0        faults" {
		t.Fatalf("header %q", got[0])
	}
	want := [][2]string{
		{"4", "DROP GetX 0->3"},
		{"9", "P0.0:W[x]=1"},
		{"9", "DELAY GetS 0->2 +12"},
		{"12", "RETRY GetX 0->3 attempt=1"},
		{"12", "P0.1:R[x]->1"},
	}
	body := got[2:]
	if len(body) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%s", len(body), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if f := strings.Fields(body[i]); len(f) < 2 || f[0] != w[0] || strings.Join(f[1:], " ") != w[1] {
			t.Errorf("row %d = %q, want stamp %s and cell %q", i, body[i], w[0], w[1])
		}
	}
	// Fault cells sit in the faults column, commits in proc 0's.
	col := strings.Index(got[0], "faults")
	if strings.Index(body[0], "DROP") != col || strings.Index(body[1], "P0.0") != strings.Index(got[0], "proc 0") {
		t.Errorf("cells out of their columns:\n%s", strings.Join(got, "\n"))
	}
}
