package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the host reference process,
// which the benchmark starts from its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(hostRefEnv) != "" {
		if err := serveHostRef(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the output against BENCHMARK.json: exactly the listed metrics
// appear, each with its unit; every gate passes; and the Chrome trace
// parses, with each span inside its parent and on its parent's request.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, wobench has %d", len(spec.Workloads), len(workloadNames))
	}
	namePat := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !namePat.MatchString(m.Name) {
			t.Errorf("metric name %q is not a valid name", m.Name)
		}
	}

	dir := t.TempDir()
	for _, w := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			args := []string{"-workload", w.Name, "-smoke", "-seconds", "0", "-reps", "2",
				"-trace", strconv.Itoa(trace), "-workdir", dir}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s -trace %d: %v\n%s", w.Name, trace, err, out.Bytes())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s -trace %d: result line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s -trace %d: correct %v, attempted %d, failed %d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, lines[0])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s -trace %d: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s -trace %d: metric %s: got %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace == 1 {
				checkChromeTrace(t, filepath.Join(dir, w.Name+".trace.json"))
			}
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := make(map[int]chromeEvent, len(tr.TraceEvents))
	for _, ev := range tr.TraceEvents {
		byID[ev.Args.ID] = ev
	}
	const eps = 1e-3 // µs; ts and dur are ns counts divided by 1000
	for _, ev := range tr.TraceEvents {
		if ev.Args.Parent < 0 {
			continue
		}
		p, ok := byID[ev.Args.Parent]
		switch {
		case !ok:
			t.Errorf("%s: span %d has unknown parent %d", path, ev.Args.ID, ev.Args.Parent)
		case ev.Ts < p.Ts-eps || ev.Ts+ev.Dur > p.Ts+p.Dur+eps:
			t.Errorf("%s: span %d (%s) escapes parent %d (%s)", path, ev.Args.ID, ev.Name, p.Args.ID, p.Name)
		case ev.Args.Req != p.Args.Req:
			t.Errorf("%s: span %d on request %d, parent on %d", path, ev.Args.ID, ev.Args.Req, p.Args.Req)
		}
	}
}
