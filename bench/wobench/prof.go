package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// profPackages are the buckets of the profile-derived attribution: a
// sample belongs to the innermost weakorder/internal/<pkg> frame on its
// stack, to "runtime" when every frame is in the Go runtime (GC,
// scheduler), and to "other" otherwise (remaining internal packages,
// the standard library called from the benchmark itself).
var profPackages = []string{
	"sat", "mem", "check", "machine", "sim", "cpu", "cache", "network",
	"ideal", "scmatch", "drf", "hb", "bitset", "runtime", "other",
}

// minProfile is the least wall time profiled: the profiler samples at
// 100 Hz, and the smoke sizes finish in a few milliseconds.
const minProfile = 500 * time.Millisecond

// profile runs fn under the CPU profiler, repeating it until minProfile
// has passed, writes the profile to path and returns the share of
// samples per bucket of profPackages.
func profile(path string, fn func() error) (map[string]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var runErr error
	for start := time.Now(); runErr == nil && time.Since(start) < minProfile; {
		runErr = fn()
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, stderr.Bytes())
	}
	return foldTraces(out)
}

// foldTraces parses `go tool pprof -traces` output: blocks separated by
// "-----------+---" lines, each a sample value followed by the stack,
// innermost frame first.
func foldTraces(out []byte) (map[string]float64, error) {
	frac := make(map[string]float64, len(profPackages))
	for _, p := range profPackages {
		frac[p] = 0
	}
	var total float64
	var value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			frac[bucket(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	inBlock := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		if isFrameLine(line) {
			frames = append(frames, fields[0])
			continue
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil || len(fields) < 2 {
			return nil, fmt.Errorf("unexpected pprof -traces line %q", line)
		}
		value = d.Seconds()
		frames = append(frames, fields[1])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("profile has no samples")
	}
	for p := range frac {
		frac[p] /= total
	}
	return frac, nil
}

// isFrameLine reports whether a line continues a stack: pprof prints the
// sample value in a 10-column field plus 3 spaces, and leaves that
// column blank on every further frame.
func isFrameLine(line string) bool {
	return len(line) > 13 && strings.TrimSpace(line[:13]) == ""
}

// bucket names the profPackages bucket of one stack, innermost frame
// first.
func bucket(frames []string) string {
	const prefix = "weakorder/internal/"
	allRuntime := true
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			if pkg := rest[:strings.IndexAny(rest+".", "./")]; slices.Contains(profPackages, pkg) {
				return pkg
			}
			return "other"
		}
		if !strings.HasPrefix(f, "runtime.") {
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "other"
}
