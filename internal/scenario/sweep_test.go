package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cf"
	"repro/internal/config"
)

func tinySweepSpec(journal string) SweepSpec {
	return SweepSpec{
		Scenarios: []string{"hashmap", "rbtree"},
		Params: map[string]Values{
			"hashmap": {"buckets": "64", "keyrange": "256"},
			"rbtree":  {"keyrange": "256"},
		},
		Space: []config.Config{
			{Alg: config.NOrec, Threads: 1},
			{Alg: config.TL2, Threads: 2},
		},
		MaxThreads: 2,
		HeapWords:  1 << 20,
		Seed:       5,
		Ops:        1000,
		Journal:    journal,
	}
}

// TestSweepEmitsTrainableCSV checks the sweep → CSV → cf.ReadCSV →
// training-matrix round trip the offline profiling pipeline depends on.
func TestSweepEmitsTrainableCSV(t *testing.T) {
	res, err := Sweep(tinySweepSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured != 4 || res.Reused != 0 {
		t.Fatalf("measured %d, reused %d; want 4, 0", res.Measured, res.Reused)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	um, labels, err := cf.ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if um.Rows != 2 || um.Cols != 2 {
		t.Fatalf("round-tripped UM is %dx%d", um.Rows, um.Cols)
	}
	if labels[0] != "NOrec:1t" || labels[1] != "TL2:2t" {
		t.Fatalf("labels = %v", labels)
	}
	for r := 0; r < um.Rows; r++ {
		for c := 0; c < um.Cols; c++ {
			if cf.IsMissing(um.Data[r][c]) || um.Data[r][c] <= 0 {
				t.Fatalf("cell (%d,%d) = %v", r, c, um.Data[r][c])
			}
		}
	}
}

// TestSweepResumesFromJournal interrupts a sweep (simulated by sweeping a
// subset), then re-runs the full grid and checks journaled cells are
// reused rather than re-measured.
func TestSweepResumesFromJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.journal")

	first := tinySweepSpec(journal)
	first.Scenarios = []string{"hashmap"} // partial run: one of two rows
	fres, err := Sweep(first)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Measured != 2 {
		t.Fatalf("partial sweep measured %d cells, want 2", fres.Measured)
	}

	full := tinySweepSpec(journal)
	sres, err := Sweep(full)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Reused != 2 || sres.Measured != 2 {
		t.Fatalf("resume reused %d / measured %d; want 2 / 2", sres.Reused, sres.Measured)
	}
	// The reused row must carry the journaled values verbatim.
	for c := range full.Space {
		if sres.UM.Data[0][c] != fres.UM.Data[0][c] {
			t.Fatalf("journaled cell (hashmap,%d): %v != %v", c, sres.UM.Data[0][c], fres.UM.Data[0][c])
		}
	}

	// A third run finds everything journaled and measures nothing.
	tres, err := Sweep(tinySweepSpec(journal))
	if err != nil {
		t.Fatal(err)
	}
	if tres.Measured != 0 || tres.Reused != 4 {
		t.Fatalf("third sweep measured %d / reused %d; want 0 / 4", tres.Measured, tres.Reused)
	}
}

// TestSweepRejectsMismatchedJournal pins the fingerprint guard: resuming
// a journal measured under different conditions must fail loudly rather
// than silently mix incomparable measurements.
func TestSweepRejectsMismatchedJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	first := tinySweepSpec(journal)
	if _, err := Sweep(first); err != nil {
		t.Fatal(err)
	}
	changed := tinySweepSpec(journal)
	changed.Seed = 99
	if _, err := Sweep(changed); err == nil {
		t.Fatal("sweep with a different seed reused a stale journal")
	} else if !strings.Contains(err.Error(), "delete the journal") {
		t.Fatalf("unhelpful mismatch error: %v", err)
	}
}

// TestSweepDeterministicFresh pins that two fresh full sweeps (no journal)
// agree cell for cell.
func TestSweepDeterministicFresh(t *testing.T) {
	a, err := Sweep(tinySweepSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(tinySweepSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.UM.Data {
		for c := range a.UM.Data[r] {
			if a.UM.Data[r][c] != b.UM.Data[r][c] {
				t.Fatalf("cell (%d,%d): %v != %v", r, c, a.UM.Data[r][c], b.UM.Data[r][c])
			}
		}
	}
}

// TestSweepCellIsARunWindow pins that the sweep and the run harness are
// one instrument: a row's first deterministic cell is, bit for bit, the
// first window of a fixed run of that scenario in that configuration with
// one window of the same budget.
func TestSweepCellIsARunWindow(t *testing.T) {
	spec := tinySweepSpec("")
	res, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for row, name := range spec.Scenarios {
		recs, err := Run(RunSpec{
			Scenario:    name,
			Params:      spec.Params[name],
			Seed:        spec.Seed,
			Configs:     []config.Config{spec.Space[0]},
			MaxThreads:  spec.MaxThreads,
			HeapWords:   spec.HeapWords,
			Ops:         spec.Ops,
			SampleEvery: spec.Ops,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.UM.Data[row][0], recs[0].Samples[0].KPI; got != want {
			t.Errorf("%s: sweep cell %v, run window %v", name, got, want)
		}
	}
}

// TestTimedSweepEndsBelowMaxThreads sweeps a row whose last column parks
// a worker, so the row's driver stops with a slot gated.
func TestTimedSweepEndsBelowMaxThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("timed mode sleeps")
	}
	spec := tinySweepSpec("")
	spec.Scenarios = spec.Scenarios[:1]
	spec.Space = []config.Config{{Alg: config.TL2, Threads: 2}, {Alg: config.NOrec, Threads: 1}}
	spec.Window = 20 * time.Millisecond
	var res *SweepResult
	var err error
	withinBound(t, func() { res, err = Sweep(spec) })
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range res.UM.Data[0] {
		if cf.IsMissing(v) || v <= 0 {
			t.Errorf("cell %s = %v, want a positive commit rate", res.Labels[c], v)
		}
	}
}

// TestSweepRefusesTooWideColumn: a column wider than MaxThreads is refused
// with Run's message before any cell is measured, and no worker outlives
// the sweep.
func TestSweepRefusesTooWideColumn(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "um.journal")
	spec := tinySweepSpec(journal)
	spec.Scenarios = spec.Scenarios[:1]
	spec.Space = []config.Config{{Alg: config.TL2, Threads: 2}, {Alg: config.NOrec, Threads: 4}}
	spec.Window = 10 * time.Millisecond
	before := runtime.NumGoroutine()
	res, err := Sweep(spec)
	const want = "scenario: config NOrec:4t needs more threads than --threads=2"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
	if res != nil {
		t.Errorf("result = %+v, want nil", res)
	}
	if data, err := os.ReadFile(journal); err == nil && strings.Contains(string(data), `"row"`) {
		t.Errorf("a cell was measured before the refusal:\n%s", data)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the sweep, %d before", n, before)
	}
}
