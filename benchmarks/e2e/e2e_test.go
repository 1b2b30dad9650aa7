package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the definitions in this package")

func smokeSizes() sizes {
	return sizes{keys: 4096, streamLen: 2048, tuneWorkloads: 60, tuneFolds: 2, probe: 20 * time.Millisecond}
}

func smokeTiming() timing {
	return timing{
		warmup: 50 * time.Millisecond, interval: 300 * time.Millisecond, intervals: 2,
		cellWarmup: 5 * time.Millisecond, cellInterval: 20 * time.Millisecond, cellRounds: 2,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts rep carries exactly the wanted metrics, once each,
// finite, with the declared unit.
func checkMetrics(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	got := map[string]bool{}
	for _, m := range rep.metrics.list {
		if got[m.name] {
			t.Errorf("metric %s emitted twice", m.name)
		}
		got[m.name] = true
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q is malformed", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("metric %s = %v is not finite", m.name, m.value)
		}
		if unit, ok := want[m.name]; !ok {
			t.Errorf("unexpected metric %s", m.name)
		} else if unit != m.unit {
			t.Errorf("metric %s has unit %q, want %q", m.name, m.unit, unit)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("metric %s was not emitted", name)
		}
	}
	if err := rep.print(); err != nil {
		t.Error(err)
	}
}

// The smoke runs only check what is emitted, not how fast, so the workloads
// run side by side.

func TestUntracedSmoke(t *testing.T) {
	want := map[string]string{}
	for _, m := range endToEndMetrics {
		want[m.name] = m.unit
	}
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := runUntraced(w, smokeSizes(), 1, smokeTiming(), 2, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, want)
			// The smoke corpus is too small for tune-shift's accuracy gate.
			if w.name != "tune-shift" && rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("attempted %d, failed %d; want some attempted and none failed", rep.attempted, rep.failed)
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	want := map[string]string{}
	for _, m := range perLayerMetrics() {
		want[m.name] = m.unit
	}
	for _, w := range workloadDefs {
		if testing.Short() && w.name != "kv-multi" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "trace.json")
			rep, err := runTraced(w, smokeSizes(), 2, smokeTiming(), 2, path) // a second seed
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, want)
			if w.name != "tune-shift" && rep.failed != 0 {
				t.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
			}
			var doc struct {
				Recorded int    `json:"spans_recorded"`
				Spans    []span `json:"spans"`
			}
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &doc)
			}
			if err != nil || doc.Recorded == 0 || len(doc.Spans) != doc.Recorded {
				t.Errorf("trace file: err=%v recorded=%d spans=%d", err, doc.Recorded, len(doc.Spans))
			}
		})
	}
}

// The exact counts of the tuner replay must depend on the seed alone.
func TestTunerCountsRepeat(t *testing.T) {
	counts := func(seed uint64) [3]float64 {
		var m metricSet
		if _, _, err := probeTuner(smokeSizes(), seed, nil, nil, &m); err != nil {
			t.Fatal(err)
		}
		var out [3]float64
		for _, x := range m.list {
			switch x.name {
			case "rectm.explorations_per_opt":
				out[0] = x.value
			case "rectm.mdfo_pct":
				out[1] = x.value
			case "rectm.far_share":
				out[2] = x.value
			}
		}
		return out
	}
	if a, b := counts(5), counts(5); a != b {
		t.Errorf("same seed, different counts: %v vs %v", a, b)
	}
}

func TestStreamsComeFromTheSeed(t *testing.T) {
	sz := smokeSizes()
	a, b, c := genStream(sz, 1, multiMix, 0, 2), genStream(sz, 1, multiMix, 0, 2), genStream(sz, 2, multiMix, 0, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same stream")
	}
	for i, op := range a {
		written := op.keys[:0]
		switch op.kind {
		case kPut, kCas, kDel:
			written = op.keys[:1]
		case kMput:
			written = op.keys[:]
		}
		for _, k := range written {
			if k%2 != 0 {
				t.Fatalf("op %d writes key %d outside client 0's stripe", i, k)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for ns := 1; ns <= 100000; ns++ {
		h.add(time.Duration(ns))
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if got, want := h.quantile(q), q*100000; math.Abs(got-want)/want > 0.005 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
}

// BENCHMARK.json must declare what the code emits.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON()
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of date; run go test ./e2e -run TestBenchmarkJSON -update in benchmarks/")
	}
}

// benchmarkJSON renders BENCHMARK.json from the definitions the code runs on.
func benchmarkJSON() []byte {
	type nameWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []nameWhy `json:"workloads"`
		EndToEnd   []e2e     `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"bash", "benchmarks/run.sh"}, Paths: []string{"benchmarks"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, nameWhy{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerMetrics() {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
