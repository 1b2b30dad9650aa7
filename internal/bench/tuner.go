package bench

import (
	"testing"

	"repro/internal/cf"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/rectm"
	"repro/internal/smbo"
)

// tunerCorpus is the corpus of the repo benchmark's tune-shift workload
// (benchmarks/e2e/tune.go): machine A's 300-workload performance-model truth
// matrix at seed 555, rows 0-2 of every 10 training, the rest held out.
func tunerCorpus() (train *cf.Matrix, heldOut [][]float64) {
	prof := machine.A()
	gen := &perfmodel.Generator{Machine: prof, Seed: 555}
	truth := gen.Matrix(gen.Workloads(300), prof.Configs(), perfmodel.Throughput)
	train = &cf.Matrix{Cols: truth.Cols}
	for u, row := range truth.Data {
		if u%10 < 3 {
			train.Data = append(train.Data, row)
			train.Rows++
		} else {
			heldOut = append(heldOut, row)
		}
	}
	return train, heldOut
}

// tunerRecommender trains the recommender tune-shift's model selection ends up
// with (10 bagged KNN-euclidean, K=3) without paying for the selection.
func tunerRecommender(b *testing.B, train *cf.Matrix) *rectm.Recommender {
	rec, err := rectm.Train(train, true, rectm.Options{
		Predictor: func() cf.Predictor { return &cf.KNN{K: 3, Sim: cf.Euclidean} },
		Learners:  10,
		Seed:      555,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

// TunerPredictDist is one surrogate query as Optimize makes it mid-run: the
// bagged ensemble's mean and variance for a held-out workload of which five
// configurations are known.
func TunerPredictDist(b *testing.B) {
	b.ReportAllocs()
	train, heldOut := tunerCorpus()
	rec := tunerRecommender(b, train)
	ref := rec.RefCol()
	active := make([]float64, rec.Cols)
	for i := range active {
		active[i] = cf.Missing
	}
	for _, i := range []int{ref, 7, 41, 90, 133} {
		active[i] = heldOut[0][i] / heldOut[0][ref]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Ensemble.PredictDist(active)
	}
}

// TunerOptimize is one workload shift: a full Recommender.Optimize (EI,
// Cautious stop) of the next held-out workload, KPIs sampled from its truth
// row — one op of tune-shift.
func TunerOptimize(b *testing.B) {
	b.ReportAllocs()
	train, heldOut := tunerCorpus()
	rec := tunerRecommender(b, train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := heldOut[i%len(heldOut)]
		rec.Optimize(func(c int) float64 { return row[c] }, nil, smbo.Options{
			Policy: smbo.EI, Stop: smbo.StopCautious, Epsilon: 0.01, Seed: uint64(i),
		})
	}
}

// TunerSelectModel is the off-line model selection every proteustm.Open and
// tune-shift's set-up run: 5-fold cross-validation of the default candidates
// over the distilled training matrix.
func TunerSelectModel(b *testing.B) {
	b.ReportAllocs()
	train, _ := tunerCorpus()
	goodness := cf.GoodnessMatrix(train, true)
	norm := &cf.Distiller{}
	if err := norm.Fit(goodness); err != nil {
		b.Fatal(err)
	}
	ratings, _ := cf.NormalizeMatrix(norm, goodness)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.SelectModel(ratings, cf.DefaultCandidates(), 5, 0, 555)
	}
}
