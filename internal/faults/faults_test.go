package faults

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"weakorder/internal/metrics"
	"weakorder/internal/network"
	"weakorder/internal/sim"
)

// Faultable test payloads carry kind 42 with the message id in ReqID;
// kind 7 payloads are protected and pass through unfaulted.
func fakeMsg(id int) network.Msg { return network.Msg{Kind: 42, ReqID: uint64(id)} }

func faultableFake(m network.Msg) bool { return m.Kind == 42 }

type arrival struct {
	at       sim.Time
	src, dst int
	m        network.Msg
}

// marks lists a timeline's instants as "time name", in export order.
func marks(t *testing.T, tl *metrics.Timeline) []string {
	t.Helper()
	b, err := tl.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" {
			out = append(out, fmt.Sprintf("%d %s", ev.Ts, ev.Name))
		}
	}
	return out
}

// run drives a scripted send schedule through a faulty wrapper over a
// jitter-free general network and returns the delivery schedule. A
// non-nil track receives the injector's decisions.
func run(t *testing.T, seed uint64, plan Plan, track *metrics.Track) ([]arrival, *Net) {
	t.Helper()
	k := &sim.Kernel{}
	inner := network.NewGeneral(k, network.GeneralConfig{BaseLatency: 3, Seed: 1})
	n := New(k, inner, plan, seed, Hooks{Faultable: faultableFake, Track: track})
	var got []arrival
	h := func(dst int) network.Handler {
		return func(src int, m network.Msg) {
			got = append(got, arrival{at: k.Now(), src: src, dst: dst, m: m})
		}
	}
	n.Attach(2, h(2))
	n.Attach(3, h(3))
	for i := 0; i < 64; i++ {
		i := i
		k.At(sim.Time(1+i*2), func() {
			n.Send(i%2, 2+i%2, fakeMsg(i))
			if i%4 == 0 {
				n.Send(i%2, 3, network.Msg{Kind: 7}) // never faulted
			}
		})
	}
	k.AdvanceTo(10_000)
	return got, n
}

func TestSameSeedSamePlanIdenticalSchedule(t *testing.T) {
	plan := Severe()
	tla, tlb := metrics.NewTimeline(), metrics.NewTimeline()
	a, na := run(t, 42, plan, tla.Track("faults"))
	b, nb := run(t, 42, plan, tlb.Track("faults"))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("delivery schedules differ for identical (seed, plan):\n%v\nvs\n%v", a, b)
	}
	if na.FaultStats() != nb.FaultStats() {
		t.Fatalf("fault stats differ: %v vs %v", na.FaultStats(), nb.FaultStats())
	}
	ma, mb := marks(t, tla), marks(t, tlb)
	if len(ma) == 0 {
		t.Fatal("severe plan marked no decisions; test is vacuous")
	}
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("fault marks differ for identical (seed, plan):\n%v\nvs\n%v", ma, mb)
	}
	st := na.FaultStats()
	if want := st.Drops + st.Dups + st.Delays + st.Retries; uint64(len(ma)) != want {
		t.Fatalf("%d marks, want one per decision (%d): %v", len(ma), want, st)
	}
}

func TestDifferentSeedDifferentSchedule(t *testing.T) {
	plan := Severe()
	a, _ := run(t, 1, plan, nil)
	b, _ := run(t, 2, plan, nil)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical schedules under a severe plan (suspicious)")
	}
}

func TestNonePlanIsTransparent(t *testing.T) {
	tl := metrics.NewTimeline()
	faulted, n := run(t, 7, None(), tl.Track("faults"))
	clean, _ := run(t, 99, None(), nil) // seed irrelevant: no decisions drawn
	if !reflect.DeepEqual(faulted, clean) {
		t.Fatal("empty plan altered the delivery schedule")
	}
	st := n.FaultStats()
	if st.Drops != 0 || st.Dups != 0 || st.Delays != 0 {
		t.Fatalf("empty plan recorded faults: %v", st)
	}
	if m := marks(t, tl); len(m) != 0 {
		t.Fatalf("empty plan marked %d decisions: %v", len(m), m)
	}
}

func TestProtectedMessagesNeverFaulted(t *testing.T) {
	// Drop everything faultable: every fakeMsg vanishes, every protected
	// string survives.
	got, n := run(t, 5, Plan{Drop: 1}, nil)
	for _, d := range got {
		if faultableFake(d.m) {
			t.Fatalf("faultable message delivered under Drop=1: %+v", d)
		}
	}
	if len(got) == 0 {
		t.Fatal("protected messages were dropped")
	}
	st := n.FaultStats()
	if st.Drops != st.Faultable {
		t.Fatalf("Drop=1: drops=%d faultable=%d", st.Drops, st.Faultable)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	got, n := run(t, 11, Plan{Dup: 1}, nil)
	counts := make(map[int]int)
	for _, d := range got {
		if faultableFake(d.m) {
			counts[int(d.m.ReqID)]++
		}
	}
	for id, c := range counts {
		if c != 2 {
			t.Fatalf("Dup=1: message %d delivered %d times, want 2", id, c)
		}
	}
	if st := n.FaultStats(); st.Dups != st.Faultable {
		t.Fatalf("Dup=1: dups=%d faultable=%d", st.Dups, st.Faultable)
	}
}

func TestDelayAddsBoundedLatency(t *testing.T) {
	const maxExtra = 9
	got, n := run(t, 13, Plan{Delay: 1, MaxExtraDelay: maxExtra}, nil)
	if len(got) == 0 {
		t.Fatal("no deliveries")
	}
	// Base latency 3, sends at 1+2i: a faultable delivery at send+3+e
	// with 1 <= e <= maxExtra.
	for _, d := range got {
		if !faultableFake(d.m) {
			continue
		}
		id := int(d.m.ReqID)
		sent := sim.Time(1 + id*2)
		extra := d.at - sent - 3
		if extra < 1 || extra > maxExtra {
			t.Fatalf("message %d: extra delay %d outside [1,%d]", id, extra, maxExtra)
		}
	}
	st := n.FaultStats()
	if st.Delays != st.Faultable || st.ExtraDelayCycles == 0 {
		t.Fatalf("Delay=1 stats: %v", st)
	}
}

func TestParseAndValidate(t *testing.T) {
	for _, name := range []string{"none", "mild", "severe", " Mild ", ""} {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Validate(%q): %v", name, err)
		}
	}
	if _, err := Parse("catastrophic"); err == nil {
		t.Fatal("Parse of unknown plan must fail")
	}
	if err := (Plan{Drop: 1.5}).Validate(); err == nil {
		t.Fatal("Drop > 1 must fail validation")
	}
	if err := (Plan{Delay: 0.5}).Validate(); err == nil {
		t.Fatal("Delay without MaxExtraDelay must fail validation")
	}
	if None().Enabled() || !Mild().Enabled() || !Severe().Enabled() {
		t.Fatal("Enabled() disagrees with presets")
	}
}

// customSpecs are specs Parse accepts, each with the plan it means.
var customSpecs = []struct {
	spec string
	want Plan
}{
	{"drop=0.1", Plan{Drop: 0.1}},
	{"drop=0.1,dup=0.05", Plan{Drop: 0.1, Dup: 0.05}},
	{"delay=0.2,maxdelay=32", Plan{Delay: 0.2, MaxExtraDelay: 32}},
	{" Drop=0.1 , NORETRY ", Plan{Drop: 0.1, DisableRetry: true}},
	{"severe,drop=0.5", func() Plan { p := Severe(); p.Drop = 0.5; return p }()},
	{"mild,noretry", func() Plan { p := Mild(); p.DisableRetry = true; return p }()},
	{"drop=0", Plan{}},
}

// TestParseCustomSpecs covers the key=value plan grammar: bare specs,
// preset-plus-override, and the noretry flag.
func TestParseCustomSpecs(t *testing.T) {
	for _, tc := range customSpecs {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

// badSpecs are specs Parse rejects, each with a fragment of its
// diagnostic.
var badSpecs = []struct {
	spec    string
	wantSub string
}{
	{"catastrophic", "bad plan field"},
	{"drop", "bad plan field"},
	{"drop=", "bad plan field"},
	{"=0.1", "unknown plan field"},
	{"drop=abc", "bad drop probability"},
	{"drop=1.5", "outside [0,1]"},
	{"drop=-0.1", "outside [0,1]"},
	{"dup=2", "outside [0,1]"},
	{"drop=NaN", "outside [0,1]"},
	{"dup=nan", "outside [0,1]"},
	{"severe,delay=NaN", "outside [0,1]"},
	{"delay=0.2", "without maxdelay"},
	{"delay=0.2,maxdelay=0", "bad maxdelay"},
	{"delay=0.2,maxdelay=-3", "bad maxdelay"},
	{"delay=0.2,maxdelay=many", "bad maxdelay"},
	{"maxdelay=1x", "bad maxdelay"},
	{"jitter=0.1", "unknown plan field"},
	{"noretry=yes", "unknown plan field"},
	{"mild,turbo=1", "unknown plan field"},
	{"drop=0.1,,dup=0.1", "bad plan field"},
}

// TestParseErrors is the table of malformed plan specs: every one must
// be rejected with a diagnostic naming the offending field, never
// silently coerced into a plan.
func TestParseErrors(t *testing.T) {
	for _, tc := range badSpecs {
		p, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted as %+v, want error containing %q", tc.spec, p, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error %q does not mention %q", tc.spec, err, tc.wantSub)
		}
	}
}

// TestEventAndStatsRendering pins the names of the decisions' marks
// and the plan rendering.
func TestEventAndStatsRendering(t *testing.T) {
	tl := metrics.NewTimeline()
	k := &sim.Kernel{}
	names := map[uint64]string{1: "GetX", 2: "GetS", 3: "PutX"}
	n := New(k, network.NewGeneral(k, network.GeneralConfig{}), Plan{Drop: 1}, 1, Hooks{
		Faultable: faultableFake,
		Describe:  func(m network.Msg) string { return names[m.ReqID] },
		Track:     tl.Track("faults"),
	})
	k.AdvanceTo(7)
	n.mark("DELAY", 0, 2, network.Msg{ReqID: 2}, 12)
	k.AdvanceTo(9)
	n.NoteRetry(0, 2, network.Msg{ReqID: 3}, 3)
	k.AdvanceTo(118)
	n.Send(1, 4, network.Msg{Kind: 42, ReqID: 1})
	want := []string{"7 DELAY GetS 0->2 +12", "9 RETRY PutX 0->2 attempt=3", "118 DROP GetX 1->4"}
	if got := marks(t, tl); !reflect.DeepEqual(got, want) {
		t.Fatalf("marks = %q, want %q", got, want)
	}
	if Mild().String() == "" || Severe().String() == "" || None().String() != "none" {
		t.Fatal("Plan.String() rendering broken")
	}
}
