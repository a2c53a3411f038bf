package check

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"weakorder/internal/machine"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

// slowFault is a harmless FaultHook that sleeps briefly per simulation
// without touching the result: it stretches a small campaign's wall
// clock so a concurrent scraper reliably observes it mid-flight, while
// leaving the Summary exactly what it would be without the hook.
func slowFault(d time.Duration) FaultHook {
	return func(cfg machine.Config, p *program.Program, res *machine.RunResult) {
		time.Sleep(d)
	}
}

// scrapeAll polls every control-plane endpoint until the campaign ends,
// recording which ones answered 200 at least once.
func scrapeAll(t *testing.T, addr string, stop <-chan struct{}) map[string]bool {
	t.Helper()
	paths := []string{"/healthz", "/metrics", "/progress", "/violations", "/summary", "/debug/pprof/goroutine?debug=1"}
	seen := make(map[string]bool)
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		for _, p := range paths {
			resp, err := client.Get("http://" + addr + p)
			if err != nil {
				continue // campaign may have just finished; server gone
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				seen[p] = true
			}
		}
		select {
		case <-stop:
			return seen
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestServeDoesNotPerturbCampaign is the control plane's core contract:
// a campaign scraped continuously over HTTP produces a Summary
// byte-identical to the same campaign run without -listen. Both runs
// carry the same do-nothing sleep hook so the scraped run is slow enough
// to be observed mid-flight without changing any outcome.
func TestServeDoesNotPerturbCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns; skipped in -short")
	}
	cfg := smallCampaign(31)
	cfg.Fault = slowFault(2 * time.Millisecond)

	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan string, 1)
	cfg.Listen = "127.0.0.1:0"
	cfg.OnListen = func(addr string) { addrCh <- addr }
	stop := make(chan struct{})
	var seen map[string]bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen = scrapeAll(t, <-addrCh, stop)
	}()
	served, err := Run(cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{"/healthz", "/metrics", "/progress", "/violations", "/summary"} {
		if !seen[p] {
			t.Errorf("scraper never got a 200 from %s during the campaign", p)
		}
	}

	j1, err := base.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := served.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("serving the control plane perturbed the summary:\n--- without listen\n%s\n--- with listen\n%s", j1, j2)
	}
}

// TestServeConcurrentScrape runs a campaign with violations, a journal,
// and several concurrent scrapers including an SSE violation tail — the
// -race exercise for every publisher/server path at once.
func TestServeConcurrentScrape(t *testing.T) {
	cfg := smallCampaign(32)
	cfg.Fault = CorruptReadFault(policy.WODef2)
	cfg.Journal = t.TempDir() + "/journal"
	addrCh := make(chan string, 2) // one receive per consumer goroutine
	cfg.Listen = "127.0.0.1:0"
	cfg.OnListen = func(addr string) { addrCh <- addr; addrCh <- addr }

	stop := make(chan struct{})
	tailed := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		scrapeAll(t, <-addrCh, stop)
	}()
	go func() {
		defer wg.Done()
		n := 0
		defer func() { tailed <- n }()
		resp, err := http.Get("http://" + <-addrCh + "/violations/stream")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		go func() { <-stop; resp.Body.Close() }()
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "data: ") {
				n++
			}
		}
	}()

	s, err := Run(cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Violations) == 0 {
		t.Fatal("fault hook produced no violations; the tail test is vacuous")
	}
	if n := <-tailed; n == 0 {
		t.Error("SSE tail saw no violation frames during a violating campaign")
	}
}

// TestProgressJSONLines pins the structured progress-line satellite:
// every line is one JSON object that decodes into Progress with the
// core fields populated and consistent.
func TestProgressJSONLines(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCampaign(33)
	cfg.Workers = 1 // serialize writes to the plain buffer
	cfg.Fault = slowFault(time.Millisecond)
	cfg.ProgressJSON = &buf
	cfg.ProgressEvery = time.Nanosecond // a line per completed program
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if buf.Len() == 0 || len(lines) == 0 {
		t.Fatal("no progress lines emitted")
	}
	// One line per completed program except the last (the campaign-done
	// line is the final summary's job).
	if want := cfg.Programs - 1; len(lines) != want {
		t.Fatalf("got %d progress lines, want %d", len(lines), want)
	}
	var last Progress
	for i, line := range lines {
		var p Progress
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("line %d is not a JSON progress object: %v\n%s", i+1, err, line)
		}
		if p.Seed != cfg.Seed || p.Programs != cfg.Programs || p.Configs != s.Configs {
			t.Fatalf("line %d carries wrong campaign identity: %+v", i+1, p)
		}
		if p.DonePrograms != int64(i+1) {
			t.Fatalf("line %d: donePrograms = %d, want %d", i+1, p.DonePrograms, i+1)
		}
		if len(p.PerConfig) != s.Configs {
			t.Fatalf("line %d: %d per-config rows, want %d", i+1, len(p.PerConfig), s.Configs)
		}
		last = p
	}
	if last.Sims <= 0 || last.ElapsedSec <= 0 || last.ProgramsPerSec <= 0 {
		t.Errorf("final line lacks rates: %+v", last)
	}
	if got := last.Oracle.SatDecided + last.Oracle.L1Hits + last.Oracle.Fallbacks; got <= 0 {
		t.Errorf("final line reports no oracle activity: %+v", last.Oracle)
	}
}

// TestProgressCountsResumedPrograms: a resumed campaign's text progress
// lines count the journaled programs as done from the first line on,
// and leave them out of the rate. Every fresh program sleeps through
// each of its simulations, so no honest rate can exceed one program per
// (simulations per program × sleep).
func TestProgressCountsResumedPrograms(t *testing.T) {
	const sleep = time.Millisecond
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	cfg := smallCampaign(35)
	cfg.Journal = journal
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	const kept = 5
	truncateJournal(t, journal, kept, "")

	cfg.Resume = true
	cfg.Workers = 1
	cfg.Fault = slowFault(sleep)
	cfg.ProgressEvery = time.Nanosecond // a line per checked program
	var lines []string
	cfg.Logf = func(format string, args ...interface{}) {
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "progress:") {
			lines = append(lines, line)
		}
	}
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.WatchdogDeaths != 0 || s.WorkerPanics != 0 {
		t.Fatalf("campaign lost simulations (%d watchdog deaths, %d panics); the rate bound assumes none",
			s.WatchdogDeaths, s.WorkerPanics)
	}
	// One line per program checked here, except the last.
	if want := cfg.Programs - kept - 1; len(lines) != want {
		t.Fatalf("got %d progress lines, want %d:\n%s", len(lines), want, strings.Join(lines, "\n"))
	}
	maxRate := 1 / (float64(s.Configs*cfg.SeedsPerConfig) * sleep.Seconds())
	for i, line := range lines {
		var done, total, sims, viols int
		var rate float64
		if n, _ := fmt.Sscanf(line, "progress: %d/%d programs, %d sims, %d violations, %f prog/s",
			&done, &total, &sims, &viols, &rate); n != 5 {
			t.Fatalf("line %d does not parse: %q", i+1, line)
		}
		if want := kept + i + 1; done != want || total != cfg.Programs {
			t.Errorf("line %d: %d/%d programs done, want %d/%d: %q", i+1, done, total, want, cfg.Programs, line)
		}
		if rate <= 0 || rate > maxRate+0.1 { // +0.1: the line rounds to one decimal
			t.Errorf("line %d: %.1f prog/s, want a positive rate of at most %.1f over the programs checked here: %q",
				i+1, rate, maxRate, line)
		}
	}
}

// TestPublisherPartialSummaryMatchesFinal: once every program is
// published, the Publisher's partial summary must be byte-identical to
// the campaign's final Summary — the /summary endpoint converges to the
// stdout summary.
func TestPublisherPartialSummaryMatchesFinal(t *testing.T) {
	cfg := smallCampaign(34)
	cfg.Fault = CorruptReadFault(policy.SC)
	addrCh := make(chan string, 1)
	cfg.Listen = "127.0.0.1:0"
	cfg.OnListen = func(addr string) { addrCh <- addr }

	// Capture the final /summary body just before the server stops: run
	// the campaign, then compare against a fresh publisher fed the same
	// outcomes. Simpler and race-free: rebuild the publisher directly.
	s, err := Run(cfg)
	<-addrCh
	if err != nil {
		t.Fatal(err)
	}

	c := &campaign{cfg: cfg.withDefaults(), matrix: Matrix(cfg.withDefaults().Policies, cfg.withDefaults().Topologies)}
	pub := newPublisher(c.cfg, c.matrix, time.Now())
	// Re-run deterministically to regenerate the outcomes and feed them.
	c.pub = pub
	outs, err := c.runPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != cfg.Programs {
		t.Fatalf("re-run produced %d outcomes", len(outs))
	}
	got, err := pub.SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("publisher summary diverges from campaign summary:\n--- publisher\n%s\n--- campaign\n%s", got, want)
	}
	// The violation feed matches the summary's violations.
	lines, _, _ := pub.Violations(0)
	if len(lines) != len(s.Violations) {
		t.Fatalf("feed has %d entries, summary %d violations", len(lines), len(s.Violations))
	}
	var rep ViolationReport
	if err := json.Unmarshal(lines[0], &rep); err != nil {
		t.Fatalf("feed line is not a ViolationReport: %v", err)
	}
	if rep.Kind == "" || rep.Litmus == "" {
		t.Errorf("feed entry missing fields: %+v", rep)
	}
}

// TestPublisherNilSafe: every hook must be callable on a nil Publisher —
// the disabled-campaign hot path.
func TestPublisherNilSafe(t *testing.T) {
	var p *Publisher
	p.noteSim(0)
	p.noteJournalAppend()
	p.noteProgram(0, progOutcome{}, false)
	p.noteViolation(ViolationReport{})
	if lines, next, _ := p.Violations(0); lines != nil || next != 0 {
		t.Error("nil publisher returned a feed")
	}
	if pr := p.Progress(); pr.Programs != 0 {
		t.Errorf("nil publisher progress: %+v", pr)
	}
}
