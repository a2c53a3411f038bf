package check

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// journalCodeHash names the current generation of outcome-affecting
// checker code. It is folded into the campaign identity so a journal
// written by an older build — whose journaled outcomes a newer build
// would not reproduce — is rejected on resume instead of silently
// merged. Bump it whenever generators, oracles, shrinking, or the
// progOutcome encoding change observable results.
const journalCodeHash = "check-v17" // v17: shrink-try budget and search-only switch left the identity

// journalMagic identifies the file format, independent of campaign
// identity.
const journalMagic = "wo-campaign-journal-1"

// journalHeader is the first line of every journal. It pins the
// campaign identity: resuming under a different configuration would
// merge outcomes from two different experiments into one Summary.
type journalHeader struct {
	Magic    string `json:"magic"`
	Identity string `json:"identity"`
}

// journalRecord is one completed program's outcome. Sum is the IEEE
// CRC-32 of the Out payload mixed with the index; a torn or bit-flipped
// record fails the check and truncates the resume scan at that point.
type journalRecord struct {
	Idx int             `json:"idx"`
	Sum uint32          `json:"sum"`
	Out json.RawMessage `json:"out"`
}

func recordSum(idx int, out []byte) uint32 {
	h := crc32.NewIEEE()
	fmt.Fprintf(h, "%d:", idx)
	h.Write(out)
	return h.Sum32()
}

// identity hashes every campaign parameter that determines per-program
// outcomes. Workers, Progress, Logf, CorpusDir, and the journal fields
// themselves are deliberately excluded — a journal written with 8
// workers must resume under 1 (the Summary is worker-count-invariant).
// The test-only Fault hook cannot be hashed and is likewise excluded,
// as is the test-only searchOnly switch; tests that set either must keep
// it stable across resume.
func (c *campaign) identity() string {
	type topoDesc struct {
		Name   string `json:"name"`
		Caches bool   `json:"caches"`
	}
	id := struct {
		Code           string        `json:"code"`
		Seed           int64         `json:"seed"`
		Programs       int           `json:"programs"`
		SeedsPerConfig int           `json:"seedsPerConfig"`
		CheckDeadline  time.Duration `json:"checkDeadline"`
		Procs          int           `json:"procs"`
		DirMode        string        `json:"dirMode"`
		Matrix         []topoDesc    `json:"matrix"`
		Faults         string        `json:"faults"`
	}{
		Code:           journalCodeHash,
		Seed:           c.cfg.Seed,
		Programs:       c.cfg.Programs,
		SeedsPerConfig: c.cfg.SeedsPerConfig,
		CheckDeadline:  c.cfg.CheckDeadline,
		Procs:          c.cfg.Procs,
		DirMode:        c.cfg.DirMode.String(),
	}
	for _, mcfg := range c.matrix {
		id.Matrix = append(id.Matrix, topoDesc{Name: mcfg.Name(), Caches: mcfg.Caches})
	}
	if c.cfg.Faults != nil {
		id.Faults = fmt.Sprintf("%+v", *c.cfg.Faults)
	}
	b, err := json.Marshal(id)
	if err != nil {
		panic(fmt.Sprintf("check: marshal campaign identity: %v", err)) // all fields are marshalable
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// journal is the append-only campaign progress log. Appends are
// serialized by a mutex (workers complete programs concurrently) and
// each record is fsynced before append returns, so a record's presence
// in the journal means the outcome survives a crash at any later point.
type journal struct {
	mu sync.Mutex
	f  *os.File
	// onAppend, when non-nil, is invoked after each record is durably
	// appended (journal-position reporting for the control plane). Set
	// before the campaign starts; never called concurrently with itself.
	onAppend func()
}

// openJournal opens the campaign journal at path. Without resume the
// file is truncated and a fresh header written. With resume, an existing
// file's header must match identity, and every valid record is returned
// as the done map; the scan stops at the first torn or corrupt record,
// truncating the file there so subsequent appends extend a known-good
// prefix. A missing or empty file resumes to an empty done map.
func openJournal(path, identity string, resume bool) (*journal, map[int]progOutcome, error) {
	flags := os.O_RDWR | os.O_CREATE
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("check: open journal: %w", err)
	}
	j := &journal{f: f}
	done := make(map[int]progOutcome)

	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("check: stat journal: %w", err)
	}
	if st.Size() == 0 {
		if err := j.writeHeader(identity); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, done, nil
	}

	// Resume scan. Track the byte offset of each good line so the file
	// can be truncated exactly at the first bad one.
	r := bufio.NewReader(f)
	var offset int64
	line, err := r.ReadBytes('\n')
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("check: journal %s: unreadable header: %w", path, err)
	}
	var hdr journalHeader
	if jerr := json.Unmarshal(line, &hdr); jerr != nil || hdr.Magic != journalMagic {
		f.Close()
		return nil, nil, fmt.Errorf("check: journal %s: not a campaign journal", path)
	}
	if hdr.Identity != identity {
		f.Close()
		return nil, nil, fmt.Errorf("check: journal %s: campaign identity mismatch (journal %.12s…, config %.12s…): refusing to merge outcomes from a different campaign",
			path, hdr.Identity, identity)
	}
	offset += int64(len(line))

	torn := false
	for {
		line, err = r.ReadBytes('\n')
		if err == io.EOF {
			// A partial final line (no trailing newline) is a torn write.
			torn = len(line) > 0
			break
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("check: read journal: %w", err)
		}
		var rec journalRecord
		if json.Unmarshal(bytes.TrimSpace(line), &rec) != nil ||
			rec.Sum != recordSum(rec.Idx, rec.Out) {
			torn = true
			break
		}
		var out progOutcome
		if json.Unmarshal(rec.Out, &out) != nil {
			torn = true
			break
		}
		done[rec.Idx] = out
		offset += int64(len(line))
	}
	if torn {
		// Drop the torn tail: appends must extend a verified prefix, and
		// the dropped program simply gets re-checked.
		if err := f.Truncate(offset); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("check: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("check: seek journal: %w", err)
	}
	return j, done, nil
}

func (j *journal) writeHeader(identity string) error {
	b, err := json.Marshal(journalHeader{Magic: journalMagic, Identity: identity})
	if err != nil {
		return fmt.Errorf("check: marshal journal header: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("check: write journal header: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("check: sync journal: %w", err)
	}
	return nil
}

// append journals one completed program. The record is written in a
// single Write call and fsynced before return: once append returns, a
// resume after any crash will see this outcome.
func (j *journal) append(idx int, out progOutcome) error {
	payload, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("check: marshal journal record: %w", err)
	}
	rec := journalRecord{Idx: idx, Sum: recordSum(idx, payload), Out: payload}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("check: marshal journal record: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("check: append journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("check: sync journal: %w", err)
	}
	if j.onAppend != nil {
		j.onAppend()
	}
	return nil
}

// Close syncs and closes the journal file.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
