// Package ctlplane is the campaign control plane: an embedded HTTP
// server exposing the live state of a running check campaign — progress,
// metrics, the violation feed, a partial summary, and pprof — without
// perturbing it.
//
// The server reads everything through the Source interface, whose
// methods must be safe for concurrent use and must not feed back into
// the campaign (internal/check's Publisher satisfies both: workers
// publish through atomic counters and an append-only feed, and every
// Source method aggregates copies). The /metrics and /summary payloads
// are additionally rate-limited: both are derived from the same
// aggregation pass, which runs on demand at most once per second
// with every request in between served from the cached bytes. An
// unscraped control plane therefore does no aggregation work at all,
// and a hammered one does a bounded amount per interval — which is what
// keeps the campaign's wall clock flat on a single-CPU host no matter
// how aggressively it is scraped.
//
// Endpoints:
//
//	GET /healthz            liveness probe ("ok")
//	GET /metrics            Prometheus text exposition (periodic snapshot)
//	GET /progress           one JSON progress object
//	GET /progress/stream    SSE: a progress object every second
//	GET /violations         NDJSON: every shrunk violation so far
//	GET /violations/stream  SSE: replay, then tail the violation feed
//	GET /summary            current partial campaign summary (JSON)
//	GET /debug/pprof/...    net/http/pprof
package ctlplane

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Source is the control plane's read-only view of a running campaign.
// Implementations must be safe for concurrent use; all methods are
// called from request handlers and the metrics refresher.
type Source interface {
	// ProgressJSON returns one JSON progress object (no trailing newline).
	ProgressJSON() []byte
	// SummaryJSON returns the current partial campaign summary as JSON.
	SummaryJSON() ([]byte, error)
	// MetricsText returns the current metrics in the Prometheus text
	// exposition format.
	MetricsText() ([]byte, error)
	// Violations returns marshaled violation JSON lines starting at index
	// from, the index to resume from, and a channel closed when the feed
	// grows.
	Violations(from int) (lines [][]byte, next int, changed <-chan struct{})
}

// refreshEvery caps how often the /metrics and /summary payloads are
// rebuilt from the Source and sets the /progress/stream tick. It is a
// variable only so that tests can lower it.
var refreshEvery = time.Second

// Server is a running control plane. Close stops it.
type Server struct {
	src    Source
	srv    *http.Server
	ln     net.Listener
	every  time.Duration
	done   chan struct{}
	closed atomic.Bool

	// The /metrics and /summary cache: both payloads come from the same
	// Source aggregation, rebuilt on demand at most once per every. The
	// mutex also single-flights concurrent rebuilds, so N scrapers cost
	// one aggregation per interval, not N.
	mu      sync.Mutex
	built   time.Time
	metrics []byte
	summary []byte
	sumErr  error
}

// Serve binds addr (host:port; an empty host or port 0 work the usual
// ways) and serves the control plane until Close.
func Serve(addr string, src Source) (*Server, error) {
	if src == nil {
		return nil, fmt.Errorf("ctlplane: nil Source")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: listen %s: %w", addr, err)
	}
	s := &Server{src: src, ln: ln, every: refreshEvery, done: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", get(s.handleHealthz))
	mux.HandleFunc("/metrics", get(s.handleMetrics))
	mux.HandleFunc("/progress", get(s.handleProgress))
	mux.HandleFunc("/progress/stream", get(s.handleProgressStream))
	mux.HandleFunc("/violations", get(s.handleViolations))
	mux.HandleFunc("/violations/stream", get(s.handleViolationsStream))
	mux.HandleFunc("/summary", get(s.handleSummary))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}

	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, closing active streams. Safe to call
// more than once.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.done)
	return s.srv.Close()
}

// refresh returns the cached /metrics and /summary payloads, rebuilding
// both from the Source when the cache is older than every. Callers get
// consistent bytes from one aggregation pass; a metrics failure keeps
// the previous exposition (scrapers prefer stale to empty), a summary
// failure is reported to the client.
func (s *Server) refresh() (metrics, summary []byte, sumErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.built) >= s.every || s.built.IsZero() {
		s.built = time.Now()
		if b, err := s.src.MetricsText(); err == nil {
			s.metrics = b
		}
		s.summary, s.sumErr = s.src.SummaryJSON()
	}
	return s.metrics, s.summary, s.sumErr
}

// get restricts a handler to GET/HEAD, answering anything else with 405.
func get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b, _, _ := s.refresh()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(s.src.ProgressJSON(), '\n'))
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	_, b, err := s.refresh()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	lines, _, _ := s.src.Violations(0)
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, l := range lines {
		w.Write(l)
		w.Write([]byte("\n"))
	}
}

// sseHeaders prepares w for a text/event-stream response and returns the
// flusher, or nil when the connection cannot stream.
func sseHeaders(w http.ResponseWriter) http.Flusher {
	f, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return nil
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	return f
}

// sseEvent writes one SSE data frame.
func sseEvent(w http.ResponseWriter, payload []byte) {
	w.Write([]byte("data: "))
	w.Write(payload)
	w.Write([]byte("\n\n"))
}

func (s *Server) handleProgressStream(w http.ResponseWriter, r *http.Request) {
	f := sseHeaders(w)
	if f == nil {
		return
	}
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		sseEvent(w, s.src.ProgressJSON())
		f.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-t.C:
		}
	}
}

func (s *Server) handleViolationsStream(w http.ResponseWriter, r *http.Request) {
	f := sseHeaders(w)
	if f == nil {
		return
	}
	from := 0
	for {
		lines, next, changed := s.src.Violations(from)
		for _, l := range lines {
			sseEvent(w, l)
		}
		f.Flush() // flush headers on the first pass even with no lines
		from = next
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-changed:
		}
	}
}
