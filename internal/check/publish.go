package check

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"weakorder/internal/machine"
)

// Publisher accumulates the live state of a running campaign for the
// control plane (internal/ctlplane) and for structured progress lines.
// It is strictly an observer: workers publish already-computed values
// through atomic counters and an append-only feed, and every read-side
// method aggregates copies — nothing here draws RNG, schedules kernel
// events, or feeds back into checking, so serving the control plane
// cannot perturb the campaign's deterministic Summary.
//
// Like the metrics registry's instruments, every method is a no-op on a
// nil receiver: a campaign without Listen or ProgressJSON carries a nil
// *Publisher and the hot path pays one nil check per hook.
type Publisher struct {
	cfg         CampaignConfig
	nConfigs    int
	configNames []string
	start       time.Time

	doneProgs   atomic.Int64
	resumed     atomic.Int64
	sims        atomic.Int64
	skips       atomic.Int64
	journalRecs atomic.Int64

	// Oracle-stage tallies, aggregated from completed programs' sim
	// records (the same flags summarize folds into OracleStats).
	satDecided    atomic.Int64
	l1Hits        atomic.Int64
	fallbacks     atomic.Int64
	satFallbacks  atomic.Int64
	skipsOracle   atomic.Int64
	skipsClassify atomic.Int64

	// perConfig counts simulation attempts per matrix row, bumped as each
	// run starts — ahead of the per-program aggregates, which land only
	// when a program completes.
	perConfig []atomic.Int64

	mu        sync.Mutex
	outs      map[int]progOutcome
	violLines [][]byte      // marshaled NDJSON violation feed, append-only
	feedCh    chan struct{} // closed and replaced on every feed append
}

func newPublisher(cfg CampaignConfig, matrix []machine.Config, start time.Time) *Publisher {
	names := make([]string, len(matrix))
	for i, m := range matrix {
		names[i] = m.Name()
	}
	return &Publisher{
		cfg:         cfg,
		nConfigs:    len(matrix),
		configNames: names,
		start:       start,
		perConfig:   make([]atomic.Int64, len(matrix)),
		outs:        make(map[int]progOutcome),
		feedCh:      make(chan struct{}),
	}
}

// noteSim records the start of one simulation attempt on matrix row
// cfgIdx.
func (p *Publisher) noteSim(cfgIdx int) {
	if p == nil {
		return
	}
	p.perConfig[cfgIdx].Add(1)
}

// noteJournalAppend records one durably journaled program outcome.
func (p *Publisher) noteJournalAppend() {
	if p == nil {
		return
	}
	p.journalRecs.Add(1)
}

// noteProgram publishes one completed program's outcome: counters,
// oracle-stage tallies, and the outcome itself for partial summaries.
// Resumed outcomes (replayed from a journal) additionally feed their
// violations to the live feed, which fresh outcomes already did at
// corpus-admit time.
func (p *Publisher) noteProgram(idx int, out progOutcome, resumed bool) {
	if p == nil {
		return
	}
	p.doneProgs.Add(1)
	if resumed {
		p.resumed.Add(1)
	}
	p.sims.Add(int64(len(out.Sims)))
	p.skips.Add(int64(len(out.Skips)))
	for _, sk := range out.Skips {
		switch sk.Stage {
		case "oracle":
			p.skipsOracle.Add(1)
		case "classify":
			p.skipsClassify.Add(1)
		}
	}
	for _, rec := range out.Sims {
		if !rec.L1 && rec.SatFallback != "" {
			p.satFallbacks.Add(1)
		}
		switch {
		case rec.Skipped != "":
		case rec.L1:
			p.l1Hits.Add(1)
		case rec.Sat:
			p.satDecided.Add(1)
		default:
			p.fallbacks.Add(1)
		}
	}
	p.mu.Lock()
	p.outs[idx] = out
	p.mu.Unlock()
	if resumed {
		for i := range out.Violations {
			p.noteViolation(out.Violations[i])
		}
	}
}

// noteViolation appends one shrunk violation report to the live feed and
// wakes every stream tailing it.
func (p *Publisher) noteViolation(rep ViolationReport) {
	if p == nil {
		return
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return // a report is always marshalable; never block the campaign
	}
	p.mu.Lock()
	p.violLines = append(p.violLines, line)
	close(p.feedCh)
	p.feedCh = make(chan struct{})
	p.mu.Unlock()
}

// ConfigProgress is one matrix row's live attempt count.
type ConfigProgress struct {
	Config string `json:"config"`
	Runs   int64  `json:"runs"`
}

// OracleProgress is the live oracle-stage breakdown: how completed
// programs' appears-SC queries were answered, plus deadline expiries by
// stage.
type OracleProgress struct {
	SatDecided    int64 `json:"satDecided"`
	L1Hits        int64 `json:"l1Hits"`
	Fallbacks     int64 `json:"fallbacks"`
	SatFallbacks  int64 `json:"satFallbacks"`
	SkipsOracle   int64 `json:"skipsOracle"`
	SkipsClassify int64 `json:"skipsClassify"`
}

// Progress is one live snapshot of campaign progress — the payload of
// the control plane's /progress endpoint and of structured JSON progress
// lines (CampaignConfig.ProgressJSON and ProgressEvery). Unlike the
// Summary it includes wall-clock rates, so it is side output only.
// DonePrograms counts programs resumed from a journal (ResumedPrograms);
// ProgramsPerSec and ETASec cover only those checked in this process.
type Progress struct {
	Seed            int64            `json:"seed"`
	Programs        int              `json:"programs"`
	DonePrograms    int64            `json:"donePrograms"`
	ResumedPrograms int64            `json:"resumedPrograms,omitempty"`
	Configs         int              `json:"configs"`
	Sims            int64            `json:"sims"`
	Violations      int              `json:"violations"`
	Skips           int64            `json:"skips,omitempty"`
	PerConfig       []ConfigProgress `json:"perConfig"`
	Oracle          OracleProgress   `json:"oracle"`
	JournalRecords  int64            `json:"journalRecords,omitempty"`
	ElapsedSec      float64          `json:"elapsedSec"`
	ProgramsPerSec  float64          `json:"programsPerSec"`
	ETASec          float64          `json:"etaSec,omitempty"`
}

// Progress assembles the current snapshot.
func (p *Publisher) Progress() Progress {
	if p == nil {
		return Progress{}
	}
	// resumed before done: each resumed program counts as done first, so
	// done never trails it.
	resumed := p.resumed.Load()
	done := p.doneProgs.Load()
	p.mu.Lock()
	viols := len(p.violLines)
	p.mu.Unlock()
	pr := Progress{
		Seed:            p.cfg.Seed,
		Programs:        p.cfg.Programs,
		DonePrograms:    done,
		ResumedPrograms: resumed,
		Configs:         p.nConfigs,
		Sims:            p.sims.Load(),
		Violations:      viols,
		Skips:           p.skips.Load(),
		JournalRecords:  p.journalRecs.Load(),
		ElapsedSec:      time.Since(p.start).Seconds(),
		Oracle: OracleProgress{
			SatDecided:    p.satDecided.Load(),
			L1Hits:        p.l1Hits.Load(),
			Fallbacks:     p.fallbacks.Load(),
			SatFallbacks:  p.satFallbacks.Load(),
			SkipsOracle:   p.skipsOracle.Load(),
			SkipsClassify: p.skipsClassify.Load(),
		},
	}
	for i, name := range p.configNames {
		pr.PerConfig = append(pr.PerConfig, ConfigProgress{Config: name, Runs: p.perConfig[i].Load()})
	}
	// The rate and the ETA cover the programs checked in this process;
	// a resumed program took none of its time.
	if checked := done - resumed; pr.ElapsedSec > 0 && checked > 0 {
		pr.ProgramsPerSec = float64(checked) / pr.ElapsedSec
		if remaining := int64(p.cfg.Programs) - done; remaining > 0 {
			pr.ETASec = float64(remaining) / pr.ProgramsPerSec
		}
	}
	return pr
}

// ProgressJSON renders the current progress snapshot as one JSON object
// (no trailing newline) — the /progress body and the progress-line
// payload.
func (p *Publisher) ProgressJSON() []byte {
	b, err := json.Marshal(p.Progress())
	if err != nil {
		return []byte("{}")
	}
	return b
}

// partialSummary folds the outcomes published so far through the same
// summarize as the final Summary. The snapshot is taken under the feed
// lock but summarized outside it, on copies, in program-index order.
func (p *Publisher) partialSummary() *Summary {
	p.mu.Lock()
	idxs := make([]int, 0, len(p.outs))
	for idx := range p.outs {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	outs := make([]progOutcome, 0, len(idxs))
	for _, idx := range idxs {
		outs = append(outs, p.outs[idx])
	}
	p.mu.Unlock()
	return summarize(p.cfg, p.nConfigs, outs)
}

// SummaryJSON renders the current partial Summary — Summary.Programs
// reports the campaign's target count; DonePrograms in Progress says how
// much of it the partial view covers.
func (p *Publisher) SummaryJSON() ([]byte, error) {
	return p.partialSummary().JSON()
}

// MetricsText renders the current partial Summary's metrics snapshot in
// the Prometheus text exposition format.
func (p *Publisher) MetricsText() ([]byte, error) {
	return p.partialSummary().Metrics().Prometheus(), nil
}

// Violations returns the marshaled NDJSON violation feed starting at
// index from (clamped), the index to resume from, and a channel that is
// closed when the feed grows.
func (p *Publisher) Violations(from int) (lines [][]byte, next int, changed <-chan struct{}) {
	if p == nil {
		return nil, 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(p.violLines) {
		from = len(p.violLines)
	}
	// The feed is append-only and lines are never mutated, so handing out
	// a sub-slice is safe.
	return p.violLines[from:], len(p.violLines), p.feedCh
}
