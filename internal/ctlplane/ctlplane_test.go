package ctlplane

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeSource is a hand-cranked Source: fixed progress/summary/metrics
// payloads plus a violation feed the test appends to.
type fakeSource struct {
	mu    sync.Mutex
	lines [][]byte
	ch    chan struct{}
}

func newFakeSource() *fakeSource {
	return &fakeSource{ch: make(chan struct{})}
}

func (f *fakeSource) ProgressJSON() []byte { return []byte(`{"donePrograms":7,"programs":10}`) }

func (f *fakeSource) SummaryJSON() ([]byte, error) { return []byte("{\n  \"sims\": 3\n}\n"), nil }

func (f *fakeSource) MetricsText() ([]byte, error) {
	return []byte("# TYPE weakorder_campaign_programs counter\nweakorder_campaign_programs 10\n"), nil
}

func (f *fakeSource) Violations(from int) ([][]byte, int, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < 0 || from > len(f.lines) {
		from = len(f.lines)
	}
	return f.lines[from:], len(f.lines), f.ch
}

func (f *fakeSource) add(line string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lines = append(f.lines, []byte(line))
	close(f.ch)
	f.ch = make(chan struct{})
}

// startServer runs a control plane that refreshes every 10ms on an
// ephemeral port and tears it down with the test.
func startServer(t *testing.T, src Source) *Server {
	t.Helper()
	refreshEvery = 10 * time.Millisecond
	s, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func httpGet(t *testing.T, s *Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, string(b)
}

func TestEndpoints(t *testing.T) {
	src := newFakeSource()
	src.add(`{"kind":"sc-policy","programIndex":0}`)
	src.add(`{"kind":"definition2","programIndex":3}`)
	s := startServer(t, src)

	resp, body := httpGet(t, s, "/healthz")
	if resp.StatusCode != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}

	resp, body = httpGet(t, s, "/progress")
	if resp.StatusCode != 200 || body != `{"donePrograms":7,"programs":10}`+"\n" {
		t.Errorf("/progress = %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/progress Content-Type = %q", ct)
	}

	resp, body = httpGet(t, s, "/summary")
	if resp.StatusCode != 200 || body != "{\n  \"sims\": 3\n}\n" {
		t.Errorf("/summary = %d %q", resp.StatusCode, body)
	}

	resp, body = httpGet(t, s, "/metrics")
	if resp.StatusCode != 200 || !strings.Contains(body, "weakorder_campaign_programs 10") {
		t.Errorf("/metrics = %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}

	resp, body = httpGet(t, s, "/violations")
	want := `{"kind":"sc-policy","programIndex":0}` + "\n" + `{"kind":"definition2","programIndex":3}` + "\n"
	if resp.StatusCode != 200 || body != want {
		t.Errorf("/violations = %d %q, want %q", resp.StatusCode, body, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/violations Content-Type = %q", ct)
	}

	resp, _ = httpGet(t, s, "/debug/pprof/goroutine?debug=1")
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/goroutine = %d", resp.StatusCode)
	}

	resp, _ = httpGet(t, s, "/no/such/endpoint")
	if resp.StatusCode != 404 {
		t.Errorf("unknown path = %d, want 404", resp.StatusCode)
	}

	post, err := http.Post("http://"+s.Addr()+"/progress", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST /progress = %d, want 405", post.StatusCode)
	}
}

// readSSE reads one complete SSE frame ("data: ...\n\n") and returns the
// payload.
func readSSE(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	var payload string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE frame: %v (payload so far %q)", err, payload)
		}
		if line == "\n" { // blank line terminates the frame
			return payload
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("malformed SSE line %q", line)
		}
		payload += strings.TrimSuffix(strings.TrimPrefix(line, "data: "), "\n")
	}
}

func TestProgressStreamFraming(t *testing.T) {
	s := startServer(t, newFakeSource())
	resp, err := http.Get("http://" + s.Addr() + "/progress/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		if got := readSSE(t, r); got != `{"donePrograms":7,"programs":10}` {
			t.Fatalf("frame %d = %q", i, got)
		}
	}
}

func TestViolationsStreamTail(t *testing.T) {
	src := newFakeSource()
	src.add(`{"n":0}`)
	s := startServer(t, src)
	resp, err := http.Get("http://" + s.Addr() + "/violations/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	// Replay of the pre-existing entry first.
	if got := readSSE(t, r); got != `{"n":0}` {
		t.Fatalf("replay frame = %q", got)
	}
	// Then live tailing as the feed grows.
	for i := 1; i <= 3; i++ {
		src.add(fmt.Sprintf(`{"n":%d}`, i))
		if got, want := readSSE(t, r), fmt.Sprintf(`{"n":%d}`, i); got != want {
			t.Fatalf("tail frame = %q, want %q", got, want)
		}
	}
}

// TestCloseUnblocksStreams: Close must terminate active SSE handlers
// rather than hanging shutdown on an idle stream.
func TestCloseUnblocksStreams(t *testing.T) {
	s := startServer(t, newFakeSource())
	resp, err := http.Get("http://" + s.Addr() + "/violations/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan struct{})
	go func() {
		io.ReadAll(resp.Body) // returns when the server closes the stream
		close(done)
	}()
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open 5s after Close")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bogus", newFakeSource()); err == nil {
		t.Error("Serve on a bogus address must error")
	}
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Error("Serve with a nil Source must error")
	}
}
