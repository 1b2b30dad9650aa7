package rectm_test

import (
	"math"
	"testing"

	"repro/internal/cf"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/rectm"
	"repro/internal/smbo"
)

// buildTruth returns (workloads, configs, full KPI matrix) on Machine A.
func buildTruth(t *testing.T, n int, kind perfmodel.KPIKind) (*perfmodel.Generator, *cf.Matrix, int) {
	t.Helper()
	gen := &perfmodel.Generator{Machine: machine.A(), Seed: 12345}
	ws := gen.Workloads(n)
	cfgs := gen.Machine.Configs()
	truth := gen.Matrix(ws, cfgs, kind)
	return gen, truth, len(cfgs)
}

func splitRows(m *cf.Matrix, trainFrac float64) (train, test *cf.Matrix) {
	nTrain := int(trainFrac * float64(m.Rows))
	tr := &cf.Matrix{Cols: m.Cols}
	te := &cf.Matrix{Cols: m.Cols}
	for u := 0; u < m.Rows; u++ {
		if u%10 < int(trainFrac*10) && tr.Rows < nTrain {
			tr.Data = append(tr.Data, m.Data[u])
			tr.Rows++
		} else {
			te.Data = append(te.Data, m.Data[u])
			te.Rows++
		}
	}
	return tr, te
}

// TestHeterogeneousOptima checks the perfmodel produces Fig.-1-style
// heterogeneity: no single configuration is near-optimal everywhere, and
// bad configurations lose big.
func TestHeterogeneousOptima(t *testing.T) {
	_, truth, cols := buildTruth(t, 60, perfmodel.Throughput)
	// For each config, its worst-case DFO across workloads.
	minWorst := math.Inf(1)
	distinct := map[int]bool{}
	for u := 0; u < truth.Rows; u++ {
		distinct[metrics.OptimumIndex(truth.Data[u], true)] = true
	}
	for c := 0; c < cols; c++ {
		worst := 0.0
		for u := 0; u < truth.Rows; u++ {
			d := metrics.DFO(truth.Data[u], c, true)
			if d > worst {
				worst = d
			}
		}
		if worst < minWorst {
			minWorst = worst
		}
	}
	if len(distinct) < 5 {
		t.Errorf("only %d distinct optimal configurations across 60 workloads; want heterogeneity", len(distinct))
	}
	if minWorst < 0.2 {
		t.Errorf("a single config is within %.0f%% of optimal everywhere; the tuning problem is trivial", minWorst*100)
	}
}

// TestDistillationBeatsNoNorm is the Fig.-4 sanity check: with the same
// training data and KNN-cosine, rating distillation must achieve a much
// lower MDFO than feeding raw KPIs to the CF.
func TestDistillationBeatsNoNorm(t *testing.T) {
	_, truth, _ := buildTruth(t, 90, perfmodel.ExecTime)
	train, test := splitRows(truth, 0.4)

	run := func(norm cf.Normalizer) float64 {
		rec, err := rectm.Train(train, false, rectm.Options{
			Normalizer: norm,
			Predictor:  func() cf.Predictor { return &cf.KNN{K: 10, Sim: cf.Cosine} },
			Learners:   10,
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		var dfos []float64
		rng := uint64(99)
		for u := 0; u < test.Rows; u++ {
			// Reveal 5 random configs.
			row := make([]float64, test.Cols)
			for i := range row {
				row[i] = cf.Missing
			}
			for k := 0; k < 5; k++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				i := int(rng>>33) % test.Cols
				row[i] = test.Data[u][i]
			}
			pred := rec.PredictKPI(row)
			chosen := metrics.OptimumIndex(pred, false)
			dfos = append(dfos, metrics.DFO(test.Data[u], chosen, false))
		}
		return metrics.Mean(dfos)
	}

	mdfoDistill := run(&cf.Distiller{})
	mdfoNone := run(cf.NoNorm{})
	t.Logf("MDFO distill=%.4f none=%.4f", mdfoDistill, mdfoNone)
	if mdfoDistill >= mdfoNone {
		t.Errorf("distillation (%.4f) did not beat no-normalization (%.4f)", mdfoDistill, mdfoNone)
	}
	if mdfoDistill > 0.15 {
		t.Errorf("distillation MDFO %.4f too high; paper-shape expects close to optimal", mdfoDistill)
	}
}

// TestOptimizeEIConverges is the Fig.-5 sanity check: EI-driven exploration
// finds a near-optimal configuration in few explorations.
func TestOptimizeEIConverges(t *testing.T) {
	_, truth, _ := buildTruth(t, 90, perfmodel.ExecTime)
	train, test := splitRows(truth, 0.5)
	rec, err := rectm.Train(train, false, rectm.Options{
		Predictor: func() cf.Predictor { return &cf.KNN{K: 10, Sim: cf.Cosine} },
		Learners:  10,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var dfos, expl []float64
	for u := 0; u < test.Rows; u++ {
		row := test.Data[u]
		res := rec.Optimize(func(i int) float64 { return row[i] }, nil, smbo.Options{
			Policy: smbo.EI, Stop: smbo.StopCautious, Epsilon: 0.01, Seed: uint64(u),
		})
		dfos = append(dfos, metrics.DFO(row, res.Best, false))
		expl = append(expl, float64(len(res.Explored)))
	}
	mdfo := metrics.Mean(dfos)
	mexpl := metrics.Mean(expl)
	t.Logf("EI: MDFO=%.4f mean explorations=%.1f (of %d configs)", mdfo, mexpl, test.Cols)
	if mdfo > 0.08 {
		t.Errorf("EI MDFO %.4f too far from optimal", mdfo)
	}
	if mexpl > float64(test.Cols)/4 {
		t.Errorf("EI used %.1f explorations on average; should sample a small fraction of %d", mexpl, test.Cols)
	}
}

// TestModelSelectionPipeline exercises the full Train path with model
// selection enabled.
func TestModelSelectionPipeline(t *testing.T) {
	_, truth, _ := buildTruth(t, 48, perfmodel.Throughput)
	train, _ := splitRows(truth, 0.6)
	rec, err := rectm.Train(train, true, rectm.Options{
		Learners:     6,
		CVFolds:      3,
		SearchBudget: 10,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Selected == "" || rec.Selected == "fixed" {
		t.Errorf("model selection did not record a choice: %q", rec.Selected)
	}
}

// TestGrowIncorporatesWorkload verifies that growing the UM with a profiled
// row improves (or at least does not break) predictions for similar
// workloads, and validates dimension checks.
func TestGrowIncorporatesWorkload(t *testing.T) {
	_, truth, _ := buildTruth(t, 60, perfmodel.Throughput)
	train, test, _, _ := splitRowsW(truth, 0.3)
	rec, err := rectm.Train(train, true, rectm.Options{
		Predictor: func() cf.Predictor { return &cf.KNN{K: 5, Sim: cf.Cosine} },
		Learners:  4,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Grow(train, make([]float64, 3)); err == nil {
		t.Error("expected dimension-mismatch error")
	}
	// Grow with a fully profiled test row.
	extended, err := rec.Grow(train, test.Data[0])
	if err != nil {
		t.Fatal(err)
	}
	if extended.Rows != train.Rows+1 {
		t.Errorf("extended rows = %d, want %d", extended.Rows, train.Rows+1)
	}
	// A sibling variant of the grown workload (next test row, same
	// family with interleaved split) should still predict fine.
	row := make([]float64, test.Cols)
	for i := range row {
		row[i] = cf.Missing
	}
	for _, i := range []int{0, 10, 20, 30, 40} {
		row[i] = test.Data[1][i]
	}
	pred := rec.PredictKPI(row)
	chosen := metrics.OptimumIndex(pred, true)
	if d := metrics.DFO(test.Data[1], chosen, true); d > 0.5 {
		t.Errorf("post-grow prediction badly off: DFO %.2f", d)
	}
}

// splitRowsW is splitRows without the workload slice (local helper).
func splitRowsW(m *cf.Matrix, trainFrac float64) (train, test *cf.Matrix, a, b []struct{}) {
	tr, te := splitRows(m, trainFrac)
	return tr, te, nil, nil
}

// TestOptimizeProfilesFailedSampleOnce: a configuration whose sample comes
// back unusable (NaN, or 0 under a lower-is-better KPI: what the runtime
// reports when reconfiguring to it fails) yields no rating, so the model keeps
// proposing it; it must still be profiled only once, and the recommendation
// must come from the usable samples.
func TestOptimizeProfilesFailedSampleOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   perfmodel.KPIKind
		higher bool
		bad    float64
	}{
		{"NaN throughput", perfmodel.Throughput, true, math.NaN()},
		{"zero exec time", perfmodel.ExecTime, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, truth, _ := buildTruth(t, 60, tc.kind)
			train, test := splitRows(truth, 0.5)
			rec, err := rectm.Train(train, tc.higher, rectm.Options{
				Predictor: func() cf.Predictor { return &cf.KNN{K: 5, Sim: cf.Cosine} },
				Learners:  6,
				Seed:      3,
			})
			if err != nil {
				t.Fatal(err)
			}
			row := test.Data[0]
			opts := smbo.Options{Policy: smbo.EI, Stop: smbo.StopNone, MaxExplorations: 12}
			clean := rec.Optimize(func(i int) float64 { return row[i] }, nil, opts)
			if len(clean.Explored) < 3 {
				t.Fatalf("explored only %v", clean.Explored)
			}
			failing := clean.Explored[1] // the model's first pick after the reference
			calls := map[int]int{}
			res := rec.Optimize(func(i int) float64 {
				calls[i]++
				if i == failing {
					return tc.bad
				}
				return row[i]
			}, nil, opts)
			for i, n := range calls {
				if n != 1 {
					t.Errorf("configuration %d profiled %d times", i, n)
				}
			}
			if calls[failing] != 1 || len(res.Explored) != len(calls) {
				t.Errorf("explored %v, sampled %v; want the failing configuration %d once and no repeats", res.Explored, calls, failing)
			}
			if len(res.Explored) != len(clean.Explored) {
				t.Errorf("explored %d configurations, want the same budget as a clean run (%d)", len(res.Explored), len(clean.Explored))
			}
			if res.Best < 0 || res.Best == failing || calls[res.Best] != 1 || math.Abs(res.BestKPI-row[res.Best]) > 1e-9*row[res.Best] {
				t.Errorf("best = %d (KPI %v), want a usable explored configuration", res.Best, res.BestKPI)
			}
		})
	}
}

// TestOptimizeAllocations bounds what one optimization of typical length (the
// reference, four explorations, the final check) allocates: its own rows, and
// the mean/variance pair each surrogate query returns (the kernel's buffers
// are pooled).
func TestOptimizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	_, truth, _ := buildTruth(t, 60, perfmodel.Throughput)
	train, test := splitRows(truth, 0.5)
	rec, err := rectm.Train(train, true, rectm.Options{
		Predictor: func() cf.Predictor { return &cf.KNN{K: 3, Sim: cf.Euclidean} },
		Learners:  10,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := test.Data[0]
	sample := func(i int) float64 { return row[i] }
	opts := smbo.Options{Policy: smbo.EI, Stop: smbo.StopNone, MaxExplorations: 4}
	explored := len(rec.Optimize(sample, nil, opts).Explored)
	allocs := testing.AllocsPerRun(50, func() { rec.Optimize(sample, nil, opts) })
	t.Logf("%d explorations, %.0f allocations", explored, allocs)
	if allocs > 16 {
		t.Errorf("one Optimize (%d explorations) allocated %.0f times, want at most 16", explored, allocs)
	}
}
