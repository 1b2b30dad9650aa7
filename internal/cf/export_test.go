package cf

import "math"

// RowSimilarityForTest exposes the dense reference similarity to the
// external test package.
func RowSimilarityForTest(s Similarity, a, b []float64) float64 {
	sim, _ := rowSimilarity(s, a, b)
	return sim
}

// rowSimilarity is the dense reference the prediction kernel's
// knownSimilarity must equal bit for bit: the similarity between two
// partially known rows over their co-rated columns, scanning every column,
// and the overlap size.
func rowSimilarity(s Similarity, a, b []float64) (float64, int) {
	switch s {
	case Cosine:
		dot, na, nb, n := 0.0, 0.0, 0.0, 0
		for i := range a {
			if IsMissing(a[i]) || IsMissing(b[i]) {
				continue
			}
			dot += a[i] * b[i]
			na += a[i] * a[i]
			nb += b[i] * b[i]
			n++
		}
		if na == 0 || nb == 0 {
			return 0, n
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb)), n
	case Pearson:
		// Means over the overlap.
		sa, sb, n := 0.0, 0.0, 0
		for i := range a {
			if IsMissing(a[i]) || IsMissing(b[i]) {
				continue
			}
			sa += a[i]
			sb += b[i]
			n++
		}
		if n < 2 {
			return 0, n
		}
		ma, mb := sa/float64(n), sb/float64(n)
		dot, na, nb := 0.0, 0.0, 0.0
		for i := range a {
			if IsMissing(a[i]) || IsMissing(b[i]) {
				continue
			}
			da, db := a[i]-ma, b[i]-mb
			dot += da * db
			na += da * da
			nb += db * db
		}
		if na == 0 || nb == 0 {
			return 0, n
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb)), n
	case Euclidean:
		sum, n := 0.0, 0
		for i := range a {
			if IsMissing(a[i]) || IsMissing(b[i]) {
				continue
			}
			d := a[i] - b[i]
			sum += d * d
			n++
		}
		if n == 0 {
			return 0, 0
		}
		return 1 / (1 + math.Sqrt(sum/float64(n))), n
	}
	return 0, 0
}

// branchCounts tallies, learner by learner, how Bagging.dist selects
// neighbours and what its fused pass (KNN.fill into the ensemble's moments)
// ran on, so a test can assert that every branch of the kernel ran.
type branchCounts struct {
	fromTop  int // the top list decided the neighbours
	tie      int // fallback to nearest: the top list met a tie
	cut      int // fallback to nearest: the top list ran out short of K
	straddle int // fromTop took fewer copies of a row than the sample holds
	bigK     int // fromTop decided, with K above the number of rows
	// fused counts the learners that ran the fused pass, by matrix
	// (dense), MeanCenter and caller (PredictFull or PredictDist).
	fused        map[fusedCase]int
	noNeighbours int // a learner whose similarity sum is 0
	infRow       int // a learner with a neighbour row holding ±Inf
}

type fusedCase struct{ dense, centred, full bool }

// count replays the neighbour selection dist makes for active, calling the
// same similarities, rank, fromTop and nearest, and tallies the outcome of
// every learner.
func (c *branchCounts) count(b *Bagging, active []float64, full bool) {
	if c.fused == nil {
		c.fused = map[fusedCase]int{}
	}
	q := newQuery(active)
	defer q.release()
	if b.knn {
		first := b.models[0].(*KNN)
		q.similarities(first.Sim, first.MinOverlap, first.train)
		q.rank(b.top)
	}
	for _, m := range b.models {
		k := m.(*KNN)
		switch {
		case !b.knn:
			q.similarities(k.Sim, k.MinOverlap, k.train)
			k.nearest(q)
		case q.topTie:
			c.tie++
			k.nearest(q)
		case !k.fromTop(q):
			c.cut++
			k.nearest(q)
		default:
			c.fromTop++
			if k.size() > k.train.Rows {
				c.bigK++
			}
			taken := 0
			for _, t := range q.top {
				n := int(k.mult[t.row])
				if taken < k.size() && taken+n > k.size() {
					c.straddle++
				}
				taken += n
			}
		}
		c.fused[fusedCase{k.dense, k.MeanCenter, full}]++
		if len(q.nb) == 0 {
			c.noNeighbours++
		}
		for _, nb := range q.nb {
			if hasInf(k.train.Data[nb.row]) {
				c.infRow++
				break
			}
		}
	}
}

func hasInf(row []float64) bool {
	for _, v := range row {
		if math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// ScoreCandidatesForTest returns the candidates SelectModel draws, in the
// order it draws them, scored as SelectModel scores them (abandon) or on
// every fold, as though no earlier candidate had a score (T = +Inf).
func ScoreCandidatesForTest(train *Matrix, cands []Candidate, folds, budget int, seed uint64, abandon bool) []Candidate {
	return scoreCandidates(train, cands, folds, budget, seed, abandon)
}
