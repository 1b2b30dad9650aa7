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

// randomMatrix draws a training matrix. A dense one has no missing entry. A
// continuous one scales every entry by a random factor, so similarities
// rarely tie; in any other, every third row repeats an earlier one.
func randomMatrix(rng *rand.Rand, dense, continuous bool) *Matrix {
	rows, cols := 4+rng.Intn(30), 2+rng.Intn(24)
	m := &Matrix{Rows: rows, Cols: cols}
	for u := 0; u < rows; u++ {
		if u%3 == 2 && !continuous {
			m.Data = append(m.Data, append([]float64(nil), m.Data[rng.Intn(u)]...))
			continue
		}
		missing := 0.2 * rng.Float64()
		if dense {
			missing = 0
		}
		row := randomRow(rng, cols, missing)
		if continuous {
			scale(rng, row)
		}
		m.Data = append(m.Data, row)
	}
	return m
}

// scale multiplies every entry of row by a random factor in [0, 1).
func scale(rng *rand.Rand, row []float64) {
	for i := range row {
		row[i] *= rng.Float64()
	}
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
			scale(rng, a)
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
// the reference kernel's predictions bit for bit — plain KNN and bagged
// through PredictDist and PredictFull, every similarity (and ensembles mixing
// them or their K), MinOverlap 1 and 3, centred or not, on sparse and dense
// matrices, with tied similarities (small integer ratings, repeated rows) and
// without (continuous ratings), on training rows holding ±Inf, and K from 1
// to above the number of rows. Every way an ensemble selects neighbours must
// have run, and its fused pass (each learner adding its predictions straight
// to the ensemble's moments) on every kind of matrix and learner, from both
// callers, for a learner without neighbours and on a neighbour holding ±Inf.
func TestPredictMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var branches branchCounts
	for n := 0; n < 1600; n++ {
		dense, continuous := n%4 == 1 || n%4 == 2, n%4 >= 2
		train := randomMatrix(rng, dense, continuous)
		if n%5 == 0 { // an infinite rating, which no average can use
			train.Data[rng.Intn(train.Rows)][rng.Intn(train.Cols)] = math.Inf(1 - 2*rng.Intn(2))
		}
		active := randomRow(rng, train.Cols, 0.3+0.7*rng.Float64())
		if continuous {
			scale(rng, active)
		}
		// K = 1 is drawn twice as often: a sample misses its 4-row top
		// list more often than any other K's, which is what drives the
		// exhaustion fallback.
		proto := KNN{
			K:          []int{1, 1, 2, 3, 10, 0, 40}[rng.Intn(7)],
			Sim:        similarities[rng.Intn(3)],
			MeanCenter: rng.Intn(2) == 0,
			MinOverlap: []int{1, 3}[rng.Intn(2)],
		}
		knn := proto
		knn.Fit(train)
		// One ensemble in four mixes similarities, so its learners cannot
		// share a query; one in four gives each learner its own K.
		mixed, ks := rng.Intn(4) == 0, rng.Intn(4) == 0
		bag := &Bagging{Learners: 1 + rng.Intn(10), Seed: rng.Uint64(), New: func(i int) Predictor {
			k := proto
			if mixed {
				k.Sim = similarities[i%3]
			}
			if ks {
				k.K += i
			}
			return &k
		}}
		bag.Fit(train)
		for _, full := range []bool{false, true} {
			branches.count(bag, active, full)
			got := knn.predict(active, full)
			if want := refKNN(&proto, train, active, full); !sameBits(got, want) {
				t.Fatalf("case %d %+v full=%v active=%v:\n got %v\nwant %v", n, proto, full, active, got, want)
			}
			mean, variance := bag.PredictDist(active)
			if full {
				mean = bag.PredictFull(active)
				_, variance = bag.dist(active, true)
			}
			wantMean, wantVar := refBagging(bag, train, active, full)
			if !sameBits(mean, wantMean) || !sameBits(variance, wantVar) {
				t.Fatalf("case %d bagged %+v full=%v active=%v:\n got %v / %v\nwant %v / %v", n, proto, full, active, mean, variance, wantMean, wantVar)
			}
		}
	}
	t.Logf("learners: %+v", branches)
	for name, c := range map[string]int{
		"fromTop": branches.fromTop, "tie fallback": branches.tie, "exhaustion fallback": branches.cut,
		"straddling row": branches.straddle, "K above rows": branches.bigK,
		"no-neighbour": branches.noNeighbours, "±Inf neighbour": branches.infRow,
	} {
		if c == 0 {
			t.Errorf("no learner took the %s branch", name)
		}
	}
	for _, dense := range []bool{false, true} {
		for _, centred := range []bool{false, true} {
			for _, full := range []bool{false, true} {
				if c := (fusedCase{dense, centred, full}); branches.fused[c] == 0 {
					t.Errorf("no learner ran the fused pass with %+v", c)
				}
			}
		}
	}
}

// TestFromTopMatchesNearest: whenever the shared top list says it decides a
// learner's neighbours, they are the ones nearest selects, in the same order —
// on similarities drawn from a few values, so that ties fall inside the list,
// at its cut and outside it, and on row samples with repeats in any order.
func TestFromTopMatchesNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	decided, fellBack := 0, 0
	for n := 0; n < 20000; n++ {
		rows := 1 + rng.Intn(40)
		q := &query{sims: make([]float64, rows)}
		levels := 1 + rng.Intn(3*rows)
		for u := range q.sims {
			if rng.Intn(4) > 0 { // a quarter of the rows are no neighbour
				q.sims[u] = float64(1+rng.Intn(levels)) / float64(levels)
			}
		}
		k := &KNN{K: rng.Intn(12)}
		sample := make([]int, 1+rng.Intn(2*rows))
		for r := range sample {
			sample[r] = rng.Intn(rows)
		}
		k.fit(&Matrix{Rows: rows, Data: make([][]float64, rows)}, sample)
		q.rank(1 + rng.Intn(4*k.size()))
		if !k.fromTop(q) {
			fellBack++
			continue
		}
		decided++
		got := append([]neighbour(nil), q.nb...)
		k.nearest(q)
		if len(got) != len(q.nb) {
			t.Fatalf("case %d: fromTop took %v, nearest %v", n, got, q.nb)
		}
		for i := range got {
			if got[i] != q.nb[i] {
				t.Fatalf("case %d: fromTop took %v, nearest %v", n, got, q.nb)
			}
		}
	}
	if decided == 0 || fellBack == 0 {
		t.Errorf("top list decided %d samples and fell back on %d: both must happen", decided, fellBack)
	}
}
