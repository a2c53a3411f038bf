package check

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"weakorder/internal/lang"
)

// fuzzSeeds returns the bytes both fuzz targets start from: a committed
// corpus entry's report and litmus text, and a two-program journal
// written by openJournal and append under fuzzIdentity.
func fuzzSeeds(f *testing.F) (report, litmus, journal []byte) {
	f.Helper()
	stem := filepath.Join("testdata", "corpus", "definition2-p0000-WO-Def2")
	report, err := os.ReadFile(stem + ".json")
	if err != nil {
		f.Fatal(err)
	}
	litmus, err = os.ReadFile(stem + ".litmus")
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "journal")
	j, _, err := openJournal(path, fuzzIdentity, false)
	if err != nil {
		f.Fatal(err)
	}
	for idx, out := range []progOutcome{
		{Class: ClassDRF, Sims: []simRecord{
			{Policy: "WO-Def2", Key: "P1.0=1;x=1", AppearsSC: true, Sat: true},
			{Policy: "SC", Key: "P1.0=1;x=1", AppearsSC: true, L1: true},
		}},
		{Class: ClassRacy, Watchdogs: 1, Skips: []SkipRecord{{ProgramIndex: 1, Stage: "oracle", Reason: "budget"}}},
	} {
		if err := j.append(idx, out); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	if journal, err = os.ReadFile(path); err != nil {
		f.Fatal(err)
	}
	return report, litmus, journal
}

// fuzzIdentity is the campaign identity FuzzOpenJournal resumes under.
const fuzzIdentity = "fuzz-campaign"

// FuzzLoadEntry feeds loadEntry a fuzzed reproducer pair. It must never
// panic; an entry that loads, written back as WriteViolation writes it
// (checksum recomputed) under the same stem, must load again to the
// same report, checksum aside, and the same formatted program.
func FuzzLoadEntry(f *testing.F) {
	report, litmus, journal := fuzzSeeds(f)
	f.Add(report, litmus)
	f.Add(journal, litmus)
	f.Fuzz(func(t *testing.T, report, litmus []byte) {
		stem := filepath.Join(t.TempDir(), "entry")
		if err := os.WriteFile(stem+".json", report, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stem+".litmus", litmus, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := loadEntry(stem + ".json")
		if err != nil {
			return
		}
		if err := writeEntry(stem, e.Report); err != nil {
			t.Fatal(err)
		}
		again, err := loadEntry(stem + ".json")
		if err != nil {
			t.Fatalf("a loaded entry, written back, does not load: %v", err)
		}
		if reportChecksum(again.Report) != reportChecksum(e.Report) {
			t.Errorf("report changed on write-back:\n was %+v\n now %+v", e.Report, again.Report)
		}
		if was, now := lang.Format(e.Prog), lang.Format(again.Prog); was != now {
			t.Errorf("program changed on write-back:\n was %q\n now %q", was, now)
		}
	})
}

// FuzzOpenJournal resumes fuzzed bytes as a campaign journal. Opening
// must never panic; a journal that opens, closed and reopened, must
// yield the same done map and leave the file as the first open left it.
func FuzzOpenJournal(f *testing.F) {
	report, _, journal := fuzzSeeds(f)
	f.Add(journal)
	f.Add(report)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, done, err := openJournal(path, fuzzIdentity, true)
		if err != nil {
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		j, again, err := openJournal(path, fuzzIdentity, true)
		if err != nil {
			t.Fatalf("a journal that opened does not reopen: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("reopening changed the journal:\n was %q\n now %q", before, after)
		}
		if !reflect.DeepEqual(done, again) {
			t.Errorf("reopening changed the done map:\n was %+v\n now %+v", done, again)
		}
	})
}
