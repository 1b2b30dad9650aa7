package cf_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cf"
)

// mkMatrix builds a matrix from literal rows, mapping negative values to
// missing entries.
func mkMatrix(rows ...[]float64) *cf.Matrix {
	m := cf.NewMatrix(len(rows), len(rows[0]))
	for u, r := range rows {
		for i, v := range r {
			if v >= 0 {
				m.Data[u][i] = v
			}
		}
	}
	return m
}

// TestDistillerPaperExample reproduces the §5.1 worked example: A1 scales
// linearly (30,20,10 inverted → use raw goodness 10,20,30), A2 anti-scales,
// A3 follows A1's trend; distillation must let KNN predict A3's missing
// third entry near 300.
func TestDistillerPaperExample(t *testing.T) {
	train := mkMatrix(
		[]float64{10, 20, 30},
		[]float64{90, 60, 30},
		[]float64{11, 22, 33},
		[]float64{80, 55, 28},
	)
	d := &cf.Distiller{}
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	ratings, _ := cf.NormalizeMatrix(d, train)
	knn := &cf.KNN{K: 2, Sim: cf.Cosine}
	knn.Fit(ratings)

	active := []float64{100, 200, cf.Missing}
	activeRatings, denorm := d.NormalizeRow(-1, active)
	pred := knn.Predict(activeRatings)
	if cf.IsMissing(pred[2]) {
		t.Fatal("no prediction produced")
	}
	got := denorm(2, pred[2])
	if math.Abs(got-300)/300 > 0.15 {
		t.Errorf("predicted %f for the scaling workload's third config, want ≈300", got)
	}
}

// TestDistillerRatioPreservation is the paper's property (i): for any row,
// the ratio between two known ratings equals the ratio between the
// corresponding goodness values.
func TestDistillerRatioPreservation(t *testing.T) {
	train := mkMatrix(
		[]float64{10, 20, 30, 5},
		[]float64{1000, 400, 800, 1200},
		[]float64{3, 2, 1, 4},
	)
	d := &cf.Distiller{}
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, dd uint8) bool {
		row := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1, float64(dd) + 1}
		ratings, _ := d.NormalizeRow(-1, row)
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				want := row[i] / row[j]
				got := ratings[i] / ratings[j]
				if math.Abs(want-got) > 1e-9*math.Abs(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDistillerDenormRoundTrip checks denorm(normalize(x)) == x for known
// entries.
func TestDistillerDenormRoundTrip(t *testing.T) {
	train := mkMatrix(
		[]float64{10, 20, 30},
		[]float64{100, 50, 25},
	)
	d := &cf.Distiller{}
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	row := []float64{7, 13, 29}
	ratings, denorm := d.NormalizeRow(-1, row)
	for i := range row {
		if got := denorm(i, ratings[i]); math.Abs(got-row[i]) > 1e-9 {
			t.Errorf("round trip col %d: got %f want %f", i, got, row[i])
		}
	}
}

// TestDistillerPicksLowDispersionColumn verifies Algorithm 3 prefers the
// reference column that aligns the row maxima.
func TestDistillerPicksLowDispersionColumn(t *testing.T) {
	// Column 0 is exactly half the row max for every row (dispersion 0);
	// column 1 is erratic relative to the max.
	train := mkMatrix(
		[]float64{50, 7, 100},
		[]float64{5, 9, 10},
		[]float64{500, 333, 1000},
	)
	d := &cf.Distiller{}
	if err := d.Fit(train); err != nil {
		t.Fatal(err)
	}
	if d.RefCol != 0 {
		t.Errorf("RefCol = %d, want 0 (dispersion-minimizing column)", d.RefCol)
	}
	if d.Dispersion > 1e-12 {
		t.Errorf("dispersion = %g, want 0", d.Dispersion)
	}
}

// TestKNNSimilarities checks the scale behaviour §5.1 describes: cosine is
// scale-insensitive, Euclidean is not.
func TestKNNSimilarities(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	simCos := cf.RowSimilarityForTest(cf.Cosine, a, b)
	if math.Abs(simCos-1) > 1e-9 {
		t.Errorf("cosine similarity of scaled rows = %f, want 1", simCos)
	}
	simEuc := cf.RowSimilarityForTest(cf.Euclidean, a, b)
	if simEuc > 0.2 {
		t.Errorf("euclidean similarity of scaled rows = %f, want small", simEuc)
	}
	simP := cf.RowSimilarityForTest(cf.Pearson, a, b)
	if math.Abs(simP-1) > 1e-9 {
		t.Errorf("pearson similarity of linearly related rows = %f, want 1", simP)
	}
}

// TestKNNPredictsFromNeighbours checks the weighted-average prediction.
func TestKNNPredictsFromNeighbours(t *testing.T) {
	train := mkMatrix(
		[]float64{1, 2, 3},
		[]float64{1, 2, 3.2},
		[]float64{9, 1, 0.5},
	)
	knn := &cf.KNN{K: 2, Sim: cf.Cosine}
	knn.Fit(train)
	pred := knn.Predict([]float64{1, 2, cf.Missing})
	if cf.IsMissing(pred[2]) {
		t.Fatal("no prediction")
	}
	if pred[2] < 2.5 || pred[2] > 3.5 {
		t.Errorf("prediction %f outside the neighbours' range [3, 3.2]", pred[2])
	}
}

// TestMFReconstruction checks MF can reconstruct a rank-1 matrix with a few
// missing cells.
func TestMFReconstruction(t *testing.T) {
	users := []float64{1, 2, 3, 4, 5, 6}
	items := []float64{2, 1, 3, 0.5, 1.5}
	full := cf.NewMatrix(len(users), len(items))
	for u := range users {
		for i := range items {
			full.Data[u][i] = users[u] * items[i]
		}
	}
	train := full.Clone()
	train.Data[0][1] = cf.Missing
	train.Data[3][4] = cf.Missing
	mf := &cf.MF{D: 4, Epochs: 400, LR: 0.02, Reg: 0.001, Seed: 7}
	mf.Fit(train)
	active := make([]float64, len(items))
	copy(active, full.Data[2])
	active[3] = cf.Missing
	pred := mf.Predict(active)
	want := users[2] * items[3]
	if math.Abs(pred[3]-want)/want > 0.3 {
		t.Errorf("MF fold-in predicted %f, want ≈%f", pred[3], want)
	}
}

// TestBaggingVarianceShrinksWithAgreement: identical learners must yield
// zero variance; heterogeneous data must yield positive variance somewhere.
func TestBaggingDist(t *testing.T) {
	train := mkMatrix(
		[]float64{1, 2, 3},
		[]float64{2, 4, 6},
		[]float64{10, 1, 5},
		[]float64{9, 2, 4},
	)
	b := &cf.Bagging{
		Learners: 8,
		New:      func(i int) cf.Predictor { return &cf.KNN{K: 2, Sim: cf.Cosine} },
		Seed:     42,
	}
	b.Fit(train)
	mean, variance := b.PredictDist([]float64{1.5, 3, cf.Missing})
	if cf.IsMissing(mean[2]) {
		t.Fatal("ensemble produced no prediction")
	}
	if variance[2] < 0 {
		t.Errorf("negative variance %f", variance[2])
	}
	// Known entries echo exactly with zero variance.
	if mean[0] != 1.5 || variance[0] != 0 {
		t.Errorf("known entry not echoed: mean %f var %f", mean[0], variance[0])
	}
}

// scaledCopies is a matrix whose rows are scaled copies of one row.
func scaledCopies() *cf.Matrix {
	base := []float64{1, 3, 2, 5, 4, 6, 0.5, 7}
	m := cf.NewMatrix(12, len(base))
	for u := 0; u < 12; u++ {
		scale := float64(u + 1)
		for i, v := range base {
			m.Data[u][i] = v * scale * (1 + 0.01*float64(i%3))
		}
	}
	return m
}

// TestSelectModelPicksReasonably runs model selection on a matrix where
// rows are scaled copies — KNN-cosine should score near-perfectly.
func TestSelectModelPicksReasonably(t *testing.T) {
	m := scaledCopies()
	best, scored := cf.SelectModel(m, cf.DefaultCandidates(), 4, 12, 99)
	if best.New == nil {
		t.Fatal("no model selected")
	}
	if len(scored) != 12 {
		t.Fatalf("scored %d candidates, want 12", len(scored))
	}
	if best.Score > 0.2 {
		t.Errorf("best CV MAPE %f too high for trivially similar rows", best.Score)
	}
}

// TestGoodnessInversion checks orientation handling.
func TestGoodnessInversion(t *testing.T) {
	if g := cf.Goodness(4, false); g != 0.25 {
		t.Errorf("minimize goodness(4) = %f, want 0.25", g)
	}
	if g := cf.Goodness(4, true); g != 4 {
		t.Errorf("maximize goodness(4) = %f, want 4", g)
	}
	if !cf.IsMissing(cf.Goodness(cf.Missing, false)) {
		t.Error("missing KPI should stay missing")
	}
}
