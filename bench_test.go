// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus ablation benchmarks for the design decisions called
// out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute the Quick-scale experiment once per
// benchmark iteration and report the headline quantities via b.ReportMetric,
// so `go test -bench` regenerates every result end to end. cmd/proteusbench
// prints the full tables at paper scale.
package proteustm_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/cf"
	"repro/internal/experiments"
	"repro/internal/stm"
	"repro/internal/tm"
)

// --- Experiment benchmarks: one per table/figure ------------------------------

// BenchmarkFig1 regenerates the performance-heterogeneity panels.
func BenchmarkFig1(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(experiments.Quick)
		// Headline: the worst normalized performance of a "good" config
		// on a foreign workload (the smaller, the stronger the case for
		// adaptation).
		worst = 1.0
		for _, panel := range [][]([]float64){r.MachineA.Normalized, r.MachineB.Normalized} {
			for _, row := range panel {
				for _, v := range row {
					if v < worst {
						worst = v
					}
				}
			}
		}
	}
	b.ReportMetric(worst, "worst-normalized-perf")
}

// BenchmarkTable4 measures PolyTM's dispatch overhead.
func BenchmarkTable4(b *testing.B) {
	var maxOv float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		maxOv = 0
		for bi, backend := range r.Backends {
			if backend == "HTM-naive" {
				continue
			}
			for _, v := range r.OverheadPct[bi] {
				if v > maxOv {
					maxOv = v
				}
			}
		}
	}
	b.ReportMetric(maxOv, "max-dispatch-overhead-%")
}

// BenchmarkTable5 measures reconfiguration latency.
func BenchmarkTable5(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range r.LatencyMicros {
			for _, v := range row {
				if v > worst {
					worst = v
				}
			}
		}
	}
	b.ReportMetric(worst, "worst-switch-latency-µs")
}

// BenchmarkFig4 regenerates the rating-distillation comparison.
func BenchmarkFig4(b *testing.B) {
	var distillMDFO5 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for si, s := range r.Schemes {
			if s == "distill" {
				distillMDFO5 = r.MDFO[si][2] // n=5 column
			}
		}
	}
	b.ReportMetric(distillMDFO5, "distill-MDFO@5")
}

// BenchmarkFig5 regenerates the exploration-policy comparison.
func BenchmarkFig5(b *testing.B) {
	var eiAdvantage float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: Random's MDFO over EI's at 6 explorations (EDP, A).
		if r.MDFOEDPA[0][2] > 0 {
			eiAdvantage = r.MDFOEDPA[2][2] / r.MDFOEDPA[0][2]
		}
	}
	b.ReportMetric(eiAdvantage, "random/EI-MDFO-ratio@6")
}

// BenchmarkFig6 regenerates the stopping-criterion comparison.
func BenchmarkFig6(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: Naive minus Cautious mean DFO at ε=0.01 (exec, B).
		gap = r.ExecB.Mean[0][0] - r.ExecB.Mean[1][0]
	}
	b.ReportMetric(gap, "naive-minus-cautious-MDFO")
}

// BenchmarkFig7 regenerates the ProteusTM-vs-ML comparison.
func BenchmarkFig7(b *testing.B) {
	var p90 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		p90 = r.Splits[0].P90["ProteusTM"]
	}
	b.ReportMetric(p90, "proteus-p90-DFO@30%train")
}

// BenchmarkFig8 runs the live online-optimization experiment (includes
// Table 6).
func BenchmarkFig8(b *testing.B) {
	var meanDFO float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, app := range r.Apps {
			for _, d := range app.ProteusDFO {
				sum += d
				n++
			}
		}
		meanDFO = sum / float64(n)
	}
	b.ReportMetric(meanDFO, "proteus-mean-DFO")
}

// BenchmarkFig9 runs the live interference experiment.
func BenchmarkFig9(b *testing.B) {
	var reopts float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		reopts = float64(r.Reoptimizations)
	}
	b.ReportMetric(reopts, "optimization-phases")
}

// --- Micro-benchmarks and ablations ---------------------------------------------
//
// The benchmark bodies AND the case grid live in internal/bench so that
// `proteusbench bench` runs the identical code via testing.Benchmark and
// persists the results as BENCH_<n>.json regression records (see
// docs/performance.md). The Benchmark* functions below only re-root
// bench.Suite() under the `go test -bench` hierarchy — extending the grid
// in Suite() automatically extends them.

// runSuitePrefix runs every suite case under the given top-level name as a
// sub-benchmark (a case "Algorithms/tl2/4t" runs as tl2/4t under
// BenchmarkAlgorithms, matching the record name exactly).
func runSuitePrefix(b *testing.B, prefix string) {
	ran := false
	for _, cs := range bench.Suite() {
		if sub, ok := strings.CutPrefix(cs.Name, prefix+"/"); ok {
			b.Run(sub, cs.Fn)
			ran = true
		}
	}
	if !ran {
		b.Fatalf("no suite cases under %q; bench.Suite() and bench_test.go drifted", prefix)
	}
}

// BenchmarkAlgorithms compares the bare TM backends on an uncontended
// counter workload at 1, 4 and 8 threads.
func BenchmarkAlgorithms(b *testing.B) { runSuitePrefix(b, "Algorithms") }

// BenchmarkAlgorithmsWriteHeavy stresses the write-set index: every
// transaction writes well past the linear-scan threshold and reads each
// written word back from the redo log.
func BenchmarkAlgorithmsWriteHeavy(b *testing.B) { runSuitePrefix(b, "AlgorithmsWriteHeavy") }

// BenchmarkPolyTMDispatch quantifies the dispatch layer's cost directly
// (the per-transaction delta behind Table 4).
func BenchmarkPolyTMDispatch(b *testing.B) { runSuitePrefix(b, "PolyTMDispatch") }

// BenchmarkTuner covers the tuner's decision path on the tune-shift corpus:
// one surrogate query, one whole optimization, and model selection.
func BenchmarkTuner(b *testing.B) { runSuitePrefix(b, "Tuner") }

// BenchmarkShard covers the key-to-shard lookup of both partitioners: the
// hash ring's bucket index and the range partitioner's boundary search.
func BenchmarkShard(b *testing.B) { runSuitePrefix(b, "Shard") }

// BenchmarkServe covers the serve layer: building a server (empty and
// preloaded), the in-process submit path — lease, transaction, reply, and
// for mput4x2, mget4x2 and range256x2 the cross-shard commit — the same
// operations through ServeHTTP, whose extra cost is the HTTP shell's, and the
// kv-multi mix from two callers at once (contended/kvmix), the one row in
// which operations wait for a slot or a fence.
func BenchmarkServe(b *testing.B) { runSuitePrefix(b, "Serve") }

// BenchmarkSystem covers booting a pinned System through the public API.
func BenchmarkSystem(b *testing.B) { runSuitePrefix(b, "System") }

// BenchmarkThreadGate is the Algorithm-1 ablation: fetch-and-add gating vs a
// compare-and-swap loop for the enter/exit pair.
func BenchmarkThreadGate(b *testing.B) {
	b.Run("fetch-and-add", bench.ThreadGateFA)
	b.Run("cas-loop", func(b *testing.B) {
		// Simulate the CAS-based gate: same transaction with an extra
		// CAS acquire/release pair per attempt.
		h := tm.NewHeap(1<<12, 1)
		base := h.MustAlloc(8)
		c := tm.NewCtx(0, h)
		var gate uint64
		alg := stm.TL2{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for !casAcquire(&gate) {
			}
			tm.Run(alg, c, func(tx tm.Txn) { tx.Store(base, 1) })
			casRelease(&gate)
		}
	})
}

// BenchmarkBaggingSize is the ensemble-size ablation (the paper uses 10
// learners): prediction cost per ensemble size.
func BenchmarkBaggingSize(b *testing.B) {
	train := cf.NewMatrix(60, 40)
	rng := uint64(9)
	for u := 0; u < train.Rows; u++ {
		for i := 0; i < train.Cols; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			train.Data[u][i] = float64(rng%1000) / 100
		}
	}
	active := make([]float64, train.Cols)
	for i := range active {
		active[i] = cf.Missing
	}
	active[0], active[5], active[9] = 1, 2, 3
	for _, k := range []int{1, 5, 10, 20} {
		b.Run(fmt.Sprintf("%dlearners", k), func(b *testing.B) {
			ens := &cf.Bagging{
				Learners: k,
				New:      func(int) cf.Predictor { return &cf.KNN{K: 5, Sim: cf.Cosine} },
				Seed:     3,
			}
			ens.Fit(train)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ens.PredictDist(active)
			}
		})
	}
}

// BenchmarkPublicAPI exercises the root package's Atomic path; steady state
// must report 0 allocs/op.
func BenchmarkPublicAPI(b *testing.B) {
	bench.PublicAPI(b)
}

func casAcquire(g *uint64) bool { return casUint64(g, 0, 1) }
func casRelease(g *uint64)      { casUint64(g, 1, 0) }

// casUint64 is a tiny wrapper so the ablation's CAS pair reads clearly.
func casUint64(p *uint64, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(p, old, new)
}
