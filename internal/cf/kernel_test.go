package cf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refKNN is the dense kernel the sparse one replaced, kept as the oracle:
// rowSimilarity over every column of every row, all neighbours sorted, the
// row mean recomputed per cell. Its one difference from the replaced code is
// a stable sort, so that equal similarities rank by row as the sparse kernel
// ranks them (the old unstable sort left their order to the sort's internals).
func refKNN(k *KNN, train *Matrix, active []float64, full bool) []float64 {
	out := make([]float64, len(active))
	copy(out, active)
	minOv := max(k.MinOverlap, 1)
	type nbr struct {
		row int
		sim float64
	}
	var nbs []nbr
	for u, row := range train.Data {
		sim, overlap := rowSimilarity(k.Sim, active, row)
		if overlap >= minOv && sim > 0 {
			nbs = append(nbs, nbr{u, sim})
		}
	}
	sort.SliceStable(nbs, func(a, b int) bool { return nbs[a].sim > nbs[b].sim })
	kk := k.K
	if kk <= 0 {
		kk = 10
	}
	nbs = nbs[:min(kk, len(nbs))]
	activeMean, _ := RowMean(active)
	for i := range out {
		if !full && !IsMissing(out[i]) {
			continue
		}
		num, den := 0.0, 0.0
		for _, nb := range nbs {
			v := train.Data[nb.row][i]
			if IsMissing(v) {
				continue
			}
			if k.MeanCenter {
				m, _ := RowMean(train.Data[nb.row])
				v -= m
			}
			num += nb.sim * v
			den += math.Abs(nb.sim)
		}
		if den == 0 {
			out[i] = Missing
			continue
		}
		out[i] = num / den
		if k.MeanCenter {
			out[i] += activeMean
		}
	}
	return out
}

// refBagging is the replaced ensemble: every learner gets a deep copy of its
// bootstrap rows and predicts a whole row of its own, and the rows are summed
// learner by learner.
func refBagging(b *Bagging, train *Matrix, active []float64, full bool) (mean, variance []float64) {
	rng := splitmix64(b.Seed + 0x9E3779B97F4A7C15)
	cols := len(active)
	sums, sqs, counts := make([]float64, cols), make([]float64, cols), make([]int, cols)
	for i := 0; i < b.Learners; i++ {
		boot := NewMatrix(train.Rows, train.Cols)
		for r := range boot.Data {
			src := min(int(rand01(&rng)*float64(train.Rows)), train.Rows-1)
			copy(boot.Data[r], train.Data[src])
		}
		for c, v := range refKNN(b.New(i).(*KNN), boot, active, full) {
			if IsMissing(v) || math.IsInf(v, 0) {
				continue
			}
			sums[c] += v
			sqs[c] += v * v
			counts[c]++
		}
	}
	mean, variance = make([]float64, cols), make([]float64, cols)
	for i := range mean {
		if counts[i] == 0 {
			mean[i], variance[i] = Missing, Missing
			continue
		}
		n := float64(counts[i])
		mean[i] = sums[i] / n
		variance[i] = max(sqs[i]/n-mean[i]*mean[i], 0)
	}
	return mean, variance
}

// randomRow draws a row of small integers (so that different rows often agree
// on the columns they share and similarities tie) with about missing of its
// entries unknown.
func randomRow(rng *rand.Rand, cols int, missing float64) []float64 {
	row := make([]float64, cols)
	for i := range row {
		if rng.Float64() < missing {
			row[i] = Missing
		} else {
			row[i] = float64(1 + rng.Intn(4))
		}
	}
	return row
}

// randomMatrix draws a training matrix in which every third row repeats an
// earlier one.
func randomMatrix(rng *rand.Rand) *Matrix {
	rows, cols := 4+rng.Intn(30), 2+rng.Intn(24)
	m := &Matrix{Rows: rows, Cols: cols}
	for u := 0; u < rows; u++ {
		if u%3 == 2 {
			m.Data = append(m.Data, append([]float64(nil), m.Data[rng.Intn(u)]...))
		} else {
			m.Data = append(m.Data, randomRow(rng, cols, 0.2*rng.Float64()))
		}
	}
	return m
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var similarities = []Similarity{Cosine, Pearson, Euclidean}

// TestKnownSimilarityMatchesDense: summing over the active row's known
// indices gives the bits and the overlap that scanning every column gives.
func TestKnownSimilarityMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 5000; n++ {
		cols := 1 + rng.Intn(40)
		a, b := randomRow(rng, cols, rng.Float64()), randomRow(rng, cols, rng.Float64())
		if n%2 == 0 { // continuous values too, not only ties
			for i := range a {
				a[i] *= rng.Float64()
			}
		}
		for _, s := range similarities {
			want, wantN := rowSimilarity(s, a, b)
			got, gotN := knownSimilarity(s, a, knownIndices(a), b)
			if math.Float64bits(got) != math.Float64bits(want) || gotN != wantN {
				t.Fatalf("%s a=%v b=%v: sparse (%v, %d), dense (%v, %d)", s, a, b, got, gotN, want, wantN)
			}
		}
	}
}

// TestPredictMatchesReference: the sparse, shared-similarity kernel returns
// the reference kernel's predictions bit for bit — plain KNN and bagged, every
// similarity (and ensembles mixing them), MinOverlap 1 and 3, centred or not,
// on matrices with repeated rows and tied similarities.
func TestPredictMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 400; n++ {
		train := randomMatrix(rng)
		active := randomRow(rng, train.Cols, 0.3+0.7*rng.Float64())
		proto := KNN{
			K:          []int{1, 3, 10, 0}[rng.Intn(4)],
			Sim:        similarities[rng.Intn(3)],
			MeanCenter: rng.Intn(2) == 0,
			MinOverlap: []int{1, 3}[rng.Intn(2)],
		}
		knn := proto
		knn.Fit(train)
		// One ensemble in four mixes similarities, so its learners cannot
		// share a query.
		mixed := rng.Intn(4) == 0
		bag := &Bagging{Learners: 1 + rng.Intn(6), Seed: rng.Uint64(), New: func(i int) Predictor {
			k := proto
			if mixed {
				k.Sim = similarities[i%3]
			}
			return &k
		}}
		bag.Fit(train)
		for _, full := range []bool{false, true} {
			got := knn.predict(active, full)
			if want := refKNN(&proto, train, active, full); !sameBits(got, want) {
				t.Fatalf("case %d %+v full=%v active=%v:\n got %v\nwant %v", n, proto, full, active, got, want)
			}
			mean, variance := bag.dist(active, full)
			wantMean, wantVar := refBagging(bag, train, active, full)
			if !sameBits(mean, wantMean) || !sameBits(variance, wantVar) {
				t.Fatalf("case %d bagged %+v full=%v active=%v:\n got %v / %v\nwant %v / %v", n, proto, full, active, mean, variance, wantMean, wantVar)
			}
		}
	}
}
