package scenario

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
)

// marshalResults renders records exactly as `proteusbench run` does.
func marshalResults(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestDeterministicRunIsByteIdentical pins the harness's core guarantee
// (and the PR's acceptance criterion): the same spec produces byte-
// identical result records on every invocation.
func TestDeterministicRunIsByteIdentical(t *testing.T) {
	spec := RunSpec{
		Scenario:   "rbtree",
		Params:     Values{"keyrange": "512"},
		Seed:       42,
		MaxThreads: 4,
		HeapWords:  1 << 20,
		Ops:        4000,
		Configs: []config.Config{
			{Alg: config.TL2, Threads: 4},
			{Alg: config.HTM, Threads: 2, Budget: 4},
		},
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := marshalResults(t, a), marshalResults(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("two runs of the same spec differ:\n--- run 1\n%s\n--- run 2\n%s", ja, jb)
	}
	r := a[0]
	if r.Ops != spec.Ops {
		t.Errorf("ops = %d, want %d", r.Ops, spec.Ops)
	}
	if r.Commits == 0 || r.Throughput == 0 || r.ElapsedSec == 0 {
		t.Errorf("empty measurement: %+v", r)
	}
	if len(r.Samples) != 10 {
		t.Errorf("got %d samples, want 10", len(r.Samples))
	}
	if len(r.Trace) != 1 || r.Trace[0].Event != "initial" {
		t.Errorf("fixed-config trace = %+v", r.Trace)
	}
}

// TestDeterministicSeedsDiffer guards against the harness ignoring the
// seed: different seeds must produce different operation streams.
func TestDeterministicSeedsDiffer(t *testing.T) {
	spec := RunSpec{
		Scenario:   "rbtree",
		Params:     Values{"keyrange": "512", "update": "0.5"},
		MaxThreads: 2,
		HeapWords:  1 << 20,
		Ops:        2000,
	}
	spec.Seed = 1
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 2
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].HeapDigest == b[0].HeapDigest {
		t.Errorf("seeds 1 and 2 produced the same heap digest %s", a[0].HeapDigest)
	}
}

// TestAutoTunedRunIsDeterministic runs the full monitor/explore/install
// loop under virtual time twice and requires identical exploration traces.
func TestAutoTunedRunIsDeterministic(t *testing.T) {
	spec := RunSpec{
		Scenario:   "hashmap",
		Params:     Values{"buckets": "128", "keyrange": "1024"},
		Seed:       7,
		MaxThreads: 4,
		HeapWords:  1 << 20,
		Ops:        8000,
		AutoTune:   true,
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := marshalResults(t, a), marshalResults(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("auto-tuned runs differ:\n--- run 1\n%s\n--- run 2\n%s", ja, jb)
	}
	r := a[0]
	if r.Phases < 1 {
		t.Errorf("phases = %d, want >= 1 (startup optimization)", r.Phases)
	}
	var explored, installed int
	for _, e := range r.Trace {
		switch e.Event {
		case "explore":
			explored++
		case "install":
			installed++
		}
	}
	if explored == 0 || installed == 0 {
		t.Errorf("trace has %d explore / %d install events: %+v", explored, installed, r.Trace)
	}
	if r.FinalConfig == "" {
		t.Error("no final config recorded")
	}
}

// timedBound is how long a timed run may take before it counts as hung: a
// worker parked behind a closed thread gate never sees its stop flag, so a
// lost gate re-open shows up as a run that does not return.
const timedBound = 30 * time.Second

// withinBound runs fn and fails the test if it has not returned within
// timedBound.
func withinBound(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(timedBound):
		t.Fatalf("did not return within %s", timedBound)
	}
}

// TestTimedRunProducesRealThroughput smoke-tests timed mode (short
// window; values are wall-clock so only sanity is checked): at full
// threads, with a worker parked for the whole run, with the tuner's adapter
// thread, and beside an antagonist.
func TestTimedRunProducesRealThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timed mode sleeps")
	}
	hashmap := Values{"buckets": "128", "keyrange": "1024"}
	for _, tc := range []struct {
		name, scenario string
		params         Values
		configs        []config.Config
		autoTune       bool
		duration       time.Duration
	}{
		{"max-threads", "hashmap", hashmap, []config.Config{{Alg: config.NOrec, Threads: 2}}, false, 50 * time.Millisecond},
		{"below-max-threads", "hashmap", hashmap, []config.Config{{Alg: config.NOrec, Threads: 1}}, false, 50 * time.Millisecond},
		// Long enough for the tuner's first windows: the default sample
		// period is 100 ms, each after a 50 ms settle.
		{"autotune", "hashmap", hashmap, nil, true, time.Second},
		{"antagonist", "interference", Values{"stressors": "1", "keyrange": "1024"}, []config.Config{{Alg: config.TL2, Threads: 1}}, false, 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res []Result
			var err error
			withinBound(t, func() {
				res, err = Run(RunSpec{
					Scenario:   tc.scenario,
					Params:     tc.params,
					Seed:       3,
					MaxThreads: 2,
					HeapWords:  1 << 20,
					Duration:   tc.duration,
					Configs:    tc.configs,
					AutoTune:   tc.autoTune,
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].Mode != Timed {
				t.Fatalf("records = %+v", res)
			}
			if res[0].Ops == 0 || res[0].Throughput == 0 {
				t.Errorf("timed run measured nothing: %+v", res[0])
			}
			if !tc.autoTune {
				return
			}
			// The tuner samples on the wall clock: real windows, each with
			// commits, none stamped past the run's end.
			samples := res[0].Samples
			if len(samples) == 0 {
				t.Fatal("timed tuned run recorded no sample")
			}
			const samplePeriod = 100 * time.Millisecond
			for _, sm := range samples {
				if sm.KPI <= 0 || sm.AtSec > (tc.duration+samplePeriod).Seconds() {
					t.Errorf("sample %+v: want kpi > 0 and at_sec <= %v", sm, tc.duration+samplePeriod)
				}
			}
		})
	}
}

// TestTimedTraceRecordsPhases: a timed auto-tuned record carries the
// tuner's phases in the deterministic schema — an explore entry per
// candidate profiled and an install entry per phase, each with its phase
// number, and one exploring sample per explore entry, in the same order.
// The tuning space is small so that the startup phase ends well inside the
// run even while the recommender trains under load.
func TestTimedTraceRecordsPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("timed mode sleeps")
	}
	var res []Result
	var err error
	withinBound(t, func() {
		res, err = Run(RunSpec{
			Scenario:   "hashmap",
			Params:     Values{"buckets": "128", "keyrange": "1024"},
			Seed:       3,
			MaxThreads: 2,
			HeapWords:  1 << 20,
			Duration:   3 * time.Second,
			AutoTune:   true,
			Space: []config.Config{
				{Alg: config.NOrec, Threads: 1}, {Alg: config.NOrec, Threads: 2}, {Alg: config.TL2, Threads: 2},
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	var explored, exploring []string
	installs := 0
	for _, e := range r.Trace[1:] {
		if e.Phase < 1 || e.Phase > r.Phases {
			t.Errorf("trace entry %+v: phase outside 1..%d", e, r.Phases)
		}
		switch e.Event {
		case "explore":
			explored = append(explored, e.Config)
		case "install":
			installs++
		default:
			t.Errorf("trace entry %+v: unexpected event", e)
		}
	}
	for _, sm := range r.Samples {
		if sm.Exploring {
			exploring = append(exploring, sm.Config)
		}
	}
	if len(explored) == 0 || installs == 0 {
		t.Fatalf("trace %+v: want explore and install entries", r.Trace)
	}
	if !slices.Equal(explored, exploring) {
		t.Errorf("explore entries %v, exploring samples %v: want one sample per entry", explored, exploring)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	if _, err := Run(RunSpec{Scenario: "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := Run(RunSpec{Scenario: "rbtree", Params: Values{"bogus": "1"}}); err == nil {
		t.Error("bogus parameter accepted")
	}
	if _, err := Run(RunSpec{
		Scenario: "rbtree", MaxThreads: 2,
		Configs: []config.Config{{Alg: config.TL2, Threads: 8}},
	}); err == nil {
		t.Error("config exceeding MaxThreads accepted")
	}
}
