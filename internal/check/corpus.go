package check

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/lang"
	"weakorder/internal/machine"
	"weakorder/internal/program"
	"weakorder/internal/scmatch"
)

// formatProgram renders a program as corpus litmus text.
func formatProgram(p *program.Program) string { return lang.Format(p) }

// writeCorpus admits one shrunk violation report: it is persisted as a
// reproducer when a corpus directory is configured, and published to the
// control plane's live violation feed either way (the feed announces
// violations, not files).
func (c *campaign) writeCorpus(rep *ViolationReport) error {
	if c.cfg.CorpusDir != "" {
		if err := WriteViolation(c.cfg.CorpusDir, *rep); err != nil {
			return err
		}
	}
	c.pub.noteViolation(*rep)
	return nil
}

// corpusName derives the entry's file stem from its report. One program
// can violate on several topologies and machine seeds, so both are in
// the stem: each violation keeps its own entry.
func corpusName(rep ViolationReport) string {
	pol := strings.NewReplacer("+", "", "/", "-").Replace(rep.Config.Policy)
	return fmt.Sprintf("%s-p%04d-%s-%s-s%d", rep.Kind, rep.ProgramIndex, pol, rep.Config.Topology, rep.MachineSeed)
}

// tmpPrefix marks in-flight corpus writes; recovery sweeps orphans left
// by a crash between create and rename.
const tmpPrefix = ".tmp-"

// atomicWriteFile writes data to path crash-atomically: a temp file in
// the same directory is written, fsynced, and renamed over path, then
// the directory is fsynced so the rename itself is durable. Readers
// never observe a torn file — only the old content or the new.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+base+"-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename survives a
// crash. Filesystems that reject directory fsync (some network mounts)
// degrade gracefully.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// reportChecksum fingerprints a report: sha256 over its JSON encoding
// with the Checksum field blanked. Load-time verification catches
// bit rot and hand-edits that silently diverge the reproducer from what
// the campaign observed.
func reportChecksum(rep ViolationReport) string {
	rep.Checksum = ""
	b, err := json.Marshal(rep)
	if err != nil {
		// ViolationReport is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("check: marshal report for checksum: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// WriteViolation stores a reproducer pair <name>.litmus + <name>.json in
// dir, creating it if needed. Both files are written atomically
// (temp + fsync + rename) and the report carries a content checksum, so
// a crash mid-write can never leave a torn entry that poisons later
// replay — at worst an orphan temp file, which RecoverCorpus sweeps.
func WriteViolation(dir string, rep ViolationReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := corpusName(rep)
	if err := atomicWriteFile(filepath.Join(dir, name+".litmus"), []byte(rep.Litmus), 0o644); err != nil {
		return err
	}
	rep.Checksum = reportChecksum(rep)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644)
}

// CorpusEntry is one loaded reproducer.
type CorpusEntry struct {
	// Name is the file stem.
	Name string
	// Report is the recorded violation.
	Report ViolationReport
	// Prog is the parsed litmus program.
	Prog *program.Program
}

// loadEntry reads and validates one reproducer pair given its .json
// path: parseable report, matching .litmus text, parseable program, and
// — when the report carries one — a matching content checksum. Entries
// written before checksums existed load without verification.
func loadEntry(jsonPath string) (CorpusEntry, error) {
	var e CorpusEntry
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		return e, err
	}
	var rep ViolationReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return e, fmt.Errorf("corpus %s: %w", jsonPath, err)
	}
	if rep.Checksum != "" {
		if got := reportChecksum(rep); got != rep.Checksum {
			return e, fmt.Errorf("corpus %s: checksum mismatch (recorded %.12s…, computed %.12s…): entry is corrupt or hand-edited",
				jsonPath, rep.Checksum, got)
		}
	}
	litmusPath := strings.TrimSuffix(jsonPath, ".json") + ".litmus"
	lb, err := os.ReadFile(litmusPath)
	if err != nil {
		return e, err
	}
	if string(lb) != rep.Litmus {
		return e, fmt.Errorf("corpus %s: .litmus file diverged from the report's recorded text", jsonPath)
	}
	p, err := lang.Parse(string(lb))
	if err != nil {
		return e, fmt.Errorf("corpus %s: %w", litmusPath, err)
	}
	return CorpusEntry{
		Name:   strings.TrimSuffix(filepath.Base(jsonPath), ".json"),
		Report: rep,
		Prog:   p,
	}, nil
}

// LoadCorpus reads every .json/.litmus reproducer pair in dir, sorted by
// name. A missing or empty directory yields an empty corpus. Any invalid
// entry is an error — use RecoverCorpus first to quarantine damage from
// a crashed (pre-hardening) run instead of failing the load.
func LoadCorpus(dir string) ([]CorpusEntry, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []CorpusEntry
	for _, f := range files {
		e, err := loadEntry(f)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// QuarantinedEntry records one corpus entry set aside by RecoverCorpus.
type QuarantinedEntry struct {
	// Name is the entry's file stem (or file name, for stray debris).
	Name string
	// Reason says what validation failed.
	Reason string
}

// quarantineDir is where RecoverCorpus moves damaged entries, relative
// to the corpus directory.
const quarantineDir = "quarantine"

// RecoverCorpus scans a corpus directory and makes it loadable again
// after a crash or corruption: orphan temp files from interrupted
// atomic writes are deleted, and any entry that fails validation
// (unparseable report, checksum mismatch, diverged or missing .litmus
// twin, orphan .litmus without a report) is moved — both halves — into
// dir/quarantine/ for post-mortem rather than deleted. It returns the
// number of valid entries kept and the quarantined set. A missing
// directory is an empty, valid corpus.
func RecoverCorpus(dir string) (kept int, quarantined []QuarantinedEntry, err error) {
	if _, serr := os.Stat(dir); os.IsNotExist(serr) {
		return 0, nil, nil
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return 0, nil, err
	}
	sort.Strings(names)
	havePair := make(map[string]bool) // stems with a .json report
	for _, f := range names {
		base := filepath.Base(f)
		if strings.HasPrefix(base, tmpPrefix) {
			// In-flight write that never reached rename; the entry it was
			// building either exists complete (old content) or not at all.
			if rerr := os.Remove(f); rerr != nil {
				return 0, nil, rerr
			}
			quarantined = append(quarantined, QuarantinedEntry{Name: base, Reason: "orphan temp file (removed)"})
			continue
		}
		if strings.HasSuffix(base, ".json") {
			havePair[strings.TrimSuffix(base, ".json")] = true
		}
	}
	for _, f := range names {
		base := filepath.Base(f)
		switch {
		case strings.HasPrefix(base, tmpPrefix):
			continue
		case strings.HasSuffix(base, ".json"):
			stem := strings.TrimSuffix(base, ".json")
			if _, lerr := loadEntry(f); lerr != nil {
				if qerr := quarantineEntry(dir, stem); qerr != nil {
					return 0, nil, qerr
				}
				quarantined = append(quarantined, QuarantinedEntry{Name: stem, Reason: lerr.Error()})
				continue
			}
			kept++
		case strings.HasSuffix(base, ".litmus"):
			stem := strings.TrimSuffix(base, ".litmus")
			if !havePair[stem] {
				if qerr := quarantineEntry(dir, stem); qerr != nil {
					return 0, nil, qerr
				}
				quarantined = append(quarantined, QuarantinedEntry{Name: stem, Reason: "orphan .litmus without a report"})
			}
		}
	}
	return kept, quarantined, nil
}

// quarantineEntry moves both halves of entry stem (whichever exist) into
// dir/quarantine/.
func quarantineEntry(dir, stem string) error {
	qdir := filepath.Join(dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	for _, ext := range []string{".json", ".litmus"} {
		src := filepath.Join(dir, stem+ext)
		if _, err := os.Stat(src); os.IsNotExist(err) {
			continue
		}
		if err := os.Rename(src, filepath.Join(qdir, stem+ext)); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// Replay re-runs a corpus entry against today's simulator: the recorded
// machine seed plus extraSeeds more, asserting the recorded contract now
// holds — the entry was minimized from a violation, so replay passing
// means the bug it captured stays fixed. Definition 2 entries are also
// re-checked to still obey DRF0 (otherwise the appears-SC assertion
// would be vacuous).
//
// KindLiveness entries assert completion: the run must finish without a
// watchdog death. Entries recorded under a DisableRetry plan are the one
// exception — that configuration removes the recovery mechanism on
// purpose, so the entry is a demonstration, and replay asserts it still
// wedges.
func Replay(e CorpusEntry, extraSeeds int) error {
	mcfg, err := e.Report.Config.Machine()
	if err != nil {
		return fmt.Errorf("%s: %w", e.Name, err)
	}
	mcfg.MaxCycles = campaignMaxCycles
	if e.Report.Kind == KindLiveness {
		return replayLiveness(e, mcfg, extraSeeds)
	}
	if e.Report.Kind == KindWorkerPanic {
		return replayPanic(e, mcfg, extraSeeds)
	}
	if e.Report.Kind == KindDefinition2 {
		v, err := drf.Check(e.Prog, hb.SyncAll, boundedDRFConfig())
		switch {
		case err != nil && !errors.Is(err, ideal.ErrBudget):
			return fmt.Errorf("%s: DRF check: %w", e.Name, err)
		case !v.DRF:
			return fmt.Errorf("%s: corpus program no longer obeys DRF0 (%d races)", e.Name, len(v.Races))
		}
		// A budget overrun with no race found is tolerated: entries from
		// DRF-by-construction generators (spin loops) can exceed any
		// exhaustive-check budget, and every shrink-accepted candidate
		// already passed this bounded check during the campaign.
	}
	seeds := []int64{e.Report.MachineSeed}
	for i := 0; i < extraSeeds; i++ {
		seeds = append(seeds, deriveSeed(e.Report.MachineSeed, uint64(i)))
	}
	for _, seed := range seeds {
		res, err := machine.Run(e.Prog, mcfg, seed)
		if err != nil {
			return fmt.Errorf("%s (seed %d): %w", e.Name, seed, err)
		}
		m, err := scmatch.Decide(e.Prog, res.Result, scmatch.Config{MaxStates: oracleMatchMaxStates})
		if err != nil {
			return fmt.Errorf("%s (seed %d): scmatch: %w", e.Name, seed, err)
		}
		if !m.OK {
			return fmt.Errorf("%s (seed %d): result does not appear SC — the recorded %s violation has regressed:\n%s",
				e.Name, seed, e.Report.Kind, res.Result)
		}
	}
	return nil
}

// replayPanic replays a KindWorkerPanic entry: the recorded program
// must now simulate to completion without panicking (the usual origin —
// an injected test fault hook — is absent on replay, so this asserts
// the simulator itself stays panic-free on the reproducer).
func replayPanic(e CorpusEntry, mcfg machine.Config, extraSeeds int) error {
	seeds := []int64{e.Report.MachineSeed}
	for i := 0; i < extraSeeds; i++ {
		seeds = append(seeds, deriveSeed(e.Report.MachineSeed, uint64(i)))
	}
	for _, seed := range seeds {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%s (seed %d): the recorded worker panic has regressed: %v", e.Name, seed, r)
				}
			}()
			if _, rerr := machine.Run(e.Prog, mcfg, seed); rerr != nil {
				var le *machine.LivenessError
				if !errors.As(rerr, &le) {
					return fmt.Errorf("%s (seed %d): %w", e.Name, seed, rerr)
				}
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayLiveness replays a KindLiveness entry; see Replay.
func replayLiveness(e CorpusEntry, mcfg machine.Config, extraSeeds int) error {
	demonstration := mcfg.Faults != nil && mcfg.Faults.DisableRetry
	if demonstration {
		// The wedge is the recorded behavior; keep the probe cheap.
		mcfg.MaxCycles = livenessShrinkMaxCycles
	}
	seeds := []int64{e.Report.MachineSeed}
	for i := 0; i < extraSeeds; i++ {
		seeds = append(seeds, deriveSeed(e.Report.MachineSeed, uint64(i)))
	}
	for _, seed := range seeds {
		_, err := machine.Run(e.Prog, mcfg, seed)
		var le *machine.LivenessError
		wedged := errors.As(err, &le)
		switch {
		case err != nil && !wedged:
			return fmt.Errorf("%s (seed %d): %w", e.Name, seed, err)
		case demonstration && seed == e.Report.MachineSeed && !wedged:
			return fmt.Errorf("%s (seed %d): retry-disabled demonstration no longer wedges", e.Name, seed)
		case !demonstration && wedged:
			return fmt.Errorf("%s (seed %d): the recorded liveness violation has regressed:\n%s",
				e.Name, seed, le.Report)
		}
	}
	return nil
}
