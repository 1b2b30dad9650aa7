package cf

import (
	"math"
	"sync"
)

// Similarity identifies a KNN row-similarity function (§5.1 discusses why
// the choice matters under heterogeneous scales).
type Similarity int

const (
	// Cosine similarity: scale-insensitive angle between co-rated parts.
	Cosine Similarity = iota
	// Pearson correlation: mean-centered cosine.
	Pearson
	// Euclidean similarity: 1/(1+distance); scale-sensitive.
	Euclidean
)

// String returns the similarity name.
func (s Similarity) String() string {
	switch s {
	case Cosine:
		return "cosine"
	case Pearson:
		return "pearson"
	case Euclidean:
		return "euclidean"
	}
	return "?"
}

// Predictor is a CF algorithm that, once fitted on a (normalized) training
// utility matrix, completes the missing entries of an active workload's
// rating row.
type Predictor interface {
	// Name identifies the predictor in experiment output.
	Name() string
	// Fit trains on the rating matrix, which it may keep but must not
	// modify: Bagging hands every learner a view of the same rows.
	Fit(train *Matrix)
	// Predict returns a full row of ratings for the active row: known
	// entries are echoed, missing ones filled with predictions (NaN if no
	// prediction is possible).
	Predict(active []float64) []float64
}

// KNN is user-based K-nearest-neighbours CF: the predicted rating of the
// active workload for configuration i is a similarity-weighted average over
// the k most similar training workloads that rated i. Item-based KNN is
// deliberately absent — as footnote 3 of the paper notes, it cannot predict
// outside the range already witnessed by the active row.
//
// A prediction costs what the active row knows, not what the matrix holds:
// similarities are summed over the active row's known columns only, and the
// K best rows are kept by bounded insertion instead of sorting all of them.
// On a training matrix with no missing entry, the weighted average skips the
// per-cell missing test and sums one denominator for every column.
type KNN struct {
	// K is the neighbourhood size.
	K int
	// Sim selects the similarity function.
	Sim Similarity
	// MeanCenter, when true, predicts deviations from row means rather
	// than raw ratings (the standard bias-corrected KNN formula).
	MeanCenter bool
	// MinOverlap is the minimum number of co-rated columns for a
	// neighbour to be considered (default 1).
	MinOverlap int

	train *Matrix
	// rows is the multiset of training rows this learner may pick
	// neighbours from: every row once, or a Bagging bootstrap sample.
	rows []int
	// mult counts the occurrences of every training row in rows.
	mult []int32
	// means holds the mean of every training row (MeanCenter only).
	means []float64
	// dense is set when no training entry is missing.
	dense bool
}

// Name implements Predictor.
func (k *KNN) Name() string {
	n := "knn-" + k.Sim.String()
	if k.MeanCenter {
		n += "-centered"
	}
	return n
}

// Fit implements Predictor.
func (k *KNN) Fit(train *Matrix) {
	rows := make([]int, train.Rows)
	for u := range rows {
		rows[u] = u
	}
	k.fit(train, rows)
}

func (k *KNN) fit(train *Matrix, rows []int) {
	k.train, k.rows, k.means = train, rows, nil
	k.dense = train.Density() == 1
	k.mult = make([]int32, train.Rows)
	for _, u := range rows {
		k.mult[u]++
	}
	if k.MeanCenter {
		k.means = make([]float64, train.Rows)
		for u, row := range train.Data {
			k.means[u], _ = RowMean(row)
		}
	}
}

// Predict implements Predictor.
func (k *KNN) Predict(active []float64) []float64 {
	return k.predict(active, false)
}

// PredictFull returns model predictions for every column, including the
// columns whose rating is already known (the known entries still drive the
// similarity search, but the output is pure neighbour consensus). RecTM uses
// this to estimate a workload's rating scale when the distillation reference
// configuration has not been sampled.
func (k *KNN) PredictFull(active []float64) []float64 {
	return k.predict(active, true)
}

func (k *KNN) predict(active []float64, full bool) []float64 {
	out := make([]float64, len(active))
	if k.train == nil {
		copy(out, active)
		return out
	}
	q := newQuery(active)
	q.similarities(k.Sim, k.MinOverlap, k.train)
	k.nearest(q)
	k.fill(q, full, &sink{row: out})
	q.release()
	return out
}

// query is what a prediction needs of the active row, computed once and
// shared by every learner fitted on the same matrix: where the row is known,
// the mean of those entries, and its similarity to each training row. The
// buffers are pooled — one Optimize issues a query per exploration.
type query struct {
	active []float64
	known  []int     // indices of the known entries, ascending
	mean   float64   // their mean (0 when none)
	sims   []float64 // per training row; 0 = not a neighbour
	nb     []neighbour
	num    []float64 // per column: Σ sim·rating over the neighbours that rated it
	den    []float64 // per column: Σ |sim| over the same
	acc    []moments // Bagging: the moments of the learners' predictions, per column

	// Bagging: the most similar distinct rows, and whether they can
	// decide every learner's neighbours (see rank).
	top            []neighbour
	topTie, topCut bool
}

type neighbour struct {
	sim float64
	row int // in the training matrix
}

var queryPool = sync.Pool{New: func() any { return new(query) }}

func newQuery(active []float64) *query {
	q := queryPool.Get().(*query)
	q.active, q.known = active, q.known[:0]
	sum := 0.0
	for i, v := range active {
		if !IsMissing(v) {
			q.known = append(q.known, i)
			sum += v
		}
	}
	q.mean = 0
	if len(q.known) > 0 {
		q.mean = sum / float64(len(q.known))
	}
	return q
}

func (q *query) release() {
	q.active = nil
	queryPool.Put(q)
}

// resize returns s with length n, reallocating only when it must; the
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// similarities fills q.sims with the similarity of the active row to every
// row of train, zero where the row is no neighbour (overlap below minOverlap
// or similarity not positive).
func (q *query) similarities(s Similarity, minOverlap int, train *Matrix) {
	if minOverlap < 1 {
		minOverlap = 1
	}
	q.sims = resize(q.sims, train.Rows)
	for u, row := range train.Data {
		sim, overlap := knownSimilarity(s, q.active, q.known, row)
		if overlap < minOverlap || !(sim > 0) {
			sim = 0
		}
		q.sims[u] = sim
	}
}

// size returns the neighbourhood size K (10 when unset).
func (k *KNN) size() int {
	if k.K <= 0 {
		return 10
	}
	return k.K
}

// rank keeps in q.top the m most similar rows of q.sims, by similarity
// descending, for every learner of an ensemble to take its neighbours from.
// It sets q.topCut when rows of positive similarity were left out, and
// q.topTie, abandoning the list, when it meets two equal similarities among
// the rows it keeps or between the last one kept and one left out: the
// order of equals is each learner's own.
func (q *query) rank(m int) {
	top := q.top[:0]
	q.topTie, q.topCut = false, false
	for u, sim := range q.sims {
		if sim == 0 {
			continue
		}
		if len(top) < m {
			top = append(top, neighbour{})
		} else {
			q.topCut = true
			if sim <= top[m-1].sim {
				if sim == top[m-1].sim {
					q.topTie = true
					break
				}
				continue
			}
		}
		j := len(top) - 1
		for ; j > 0 && top[j-1].sim < sim; j-- {
			top[j] = top[j-1]
		}
		if j > 0 && top[j-1].sim == sim {
			q.topTie = true
			break
		}
		top[j] = neighbour{sim, u}
	}
	q.top = top
}

// fromTop selects the learner's K most similar rows into q.nb by walking
// q.top, taking each row as many times as the learner's sample holds it. It
// reports whether that is the selection nearest makes: not when q.top has a
// tie, nor when it runs out short of K having left rows out.
func (k *KNN) fromTop(q *query) bool {
	if q.topTie {
		return false
	}
	kk := k.size()
	nb := q.nb[:0]
	for _, t := range q.top {
		for c := k.mult[t.row]; c > 0; c-- {
			if len(nb) == kk {
				q.nb = nb
				return true
			}
			nb = append(nb, t)
		}
	}
	q.nb = nb
	return len(nb) == kk || !q.topCut
}

// nearest selects the learner's K most similar rows from q.sims into q.nb,
// by similarity descending and, among equals, position in the learner's row
// set ascending.
func (k *KNN) nearest(q *query) {
	kk := k.size()
	nb := q.nb[:0]
	for _, u := range k.rows {
		sim := q.sims[u]
		if sim == 0 || (len(nb) == kk && sim <= nb[kk-1].sim) {
			continue
		}
		if len(nb) < kk {
			nb = append(nb, neighbour{})
		}
		j := len(nb) - 1
		for ; j > 0 && nb[j-1].sim < sim; j-- {
			nb[j] = nb[j-1]
		}
		nb[j] = neighbour{sim, u}
	}
	q.nb = nb
}

// sink receives, column by column, the predictions fill makes: KNN.predict
// keeps the learner's row, Bagging.dist adds each prediction to the
// ensemble's running moments.
type sink struct {
	row []float64 // the learner's row, or nil for an ensemble
	acc []moments // ensemble: per column
}

// moments sums one column's predictions over an ensemble's learners.
type moments struct {
	sum, sq float64 // Σ prediction, Σ prediction²
	n       int     // the learners that predicted the column
}

// add adds prediction p to m unless p is NaN or ±Inf, the predictions no
// average can use: v-v is 0 for every finite v and NaN for those.
func (m *moments) add(p float64) {
	if p-p != 0 {
		return
	}
	m.sum += p
	m.sq += p * p
	m.n++
}

// put hands the sink column i's prediction p.
func (s *sink) put(i int, p float64) {
	if s.row != nil {
		s.row[i] = p
	} else {
		s.acc[i].add(p)
	}
}

// fill hands the sink the learner's prediction for every column of the
// query: the known entry unless full, otherwise the similarity-weighted
// average of the neighbours in q.nb that rated the column (Missing when none
// did). Neighbour by neighbour, so each training row is read front to back;
// every column still sums its neighbours in rank order. The last neighbour's
// pass (last) divides and hands each column to the sink as it goes: an
// ensemble's learner adds its predictions to the ensemble's moments without
// writing a row of its own. A row is overwritten at the known columns
// afterwards; an ensemble cannot take a prediction back, so for it the pass
// stops at each known column to hand over the entry instead.
func (k *KNN) fill(q *query, full bool, s *sink) {
	cols := len(q.active)
	q.num, q.den = resize(q.num, cols), resize(q.den, cols)
	// The reslices spare the loops below their bounds checks.
	num, den := q.num[:cols], q.den[:cols]
	clear(num)
	if !k.dense {
		clear(den)
	}
	// On a dense matrix every column has the same neighbours, hence the
	// same denominator, summed once in the same order.
	shared := 0.0
	for _, nb := range q.nb {
		shared += math.Abs(nb.sim)
	}
	for j := 0; j < len(q.nb)-1; j++ {
		nb := q.nb[j]
		mean := k.mean(nb.row)
		row := k.train.Data[nb.row][:cols]
		if k.dense {
			for i, v := range row {
				num[i] += nb.sim * (v - mean)
			}
			continue
		}
		abs := math.Abs(nb.sim)
		for i, v := range row {
			if IsMissing(v) {
				continue
			}
			num[i] += nb.sim * (v - mean)
			den[i] += abs
		}
	}
	if full || s.row != nil {
		k.last(q, s, shared, 0, cols)
		if !full {
			for _, j := range q.known {
				s.row[j] = q.active[j]
			}
		}
		return
	}
	lo := 0
	for _, j := range q.known {
		k.last(q, s, shared, lo, j)
		s.put(j, q.active[j])
		lo = j + 1
	}
	k.last(q, s, shared, lo, cols)
}

// mean is what MeanCenter subtracts from training row u's ratings: its mean,
// or 0 (v - 0 is v, bit for bit).
func (k *KNN) mean(u int) float64 {
	if k.MeanCenter {
		return k.means[u]
	}
	return 0
}

// last adds the last neighbour's term to columns [lo, hi) of the sums fill
// accumulated, divides by the denominator — shared on a dense matrix, the
// column's own otherwise — adds the active row's mean when centred, and hands
// each prediction to the sink. A learner without neighbours (similarity sum
// 0) predicts Missing everywhere.
func (k *KNN) last(q *query, s *sink, shared float64, lo, hi int) {
	if len(q.nb) == 0 {
		if s.row != nil {
			for i := lo; i < hi; i++ {
				s.row[i] = Missing
			}
		}
		return
	}
	nb := q.nb[len(q.nb)-1]
	mean, abs := k.mean(nb.row), math.Abs(nb.sim)
	centred, add := k.MeanCenter, q.mean
	row := k.train.Data[nb.row][lo:hi]
	num, den := q.num[lo:hi], q.den[lo:hi]
	if k.dense {
		// Two loops, not one through put: testing the sink per column
		// cost the ensemble's query about a tenth of its time.
		if s.row == nil {
			acc := s.acc[lo:hi]
			for i, v := range row {
				p := (num[i] + nb.sim*(v-mean)) / shared
				if centred {
					p += add
				}
				acc[i].add(p)
			}
			return
		}
		out := s.row[lo:hi]
		for i, v := range row {
			p := (num[i] + nb.sim*(v-mean)) / shared
			if centred {
				p += add
			}
			out[i] = p
		}
		return
	}
	for i, v := range row {
		n, d := num[i], den[i]
		if !IsMissing(v) {
			n += nb.sim * (v - mean)
			d += abs
		}
		p := Missing
		if d != 0 {
			p = n / d
			if centred {
				p += add
			}
		}
		s.put(lo+i, p)
	}
}

// knownSimilarity computes the similarity between the active row a, whose
// known entries are at the ascending indices known, and a partially known
// training row b over their co-rated columns, returning the similarity and
// the overlap size.
func knownSimilarity(s Similarity, a []float64, known []int, b []float64) (float64, int) {
	switch s {
	case Cosine:
		dot, na, nb, n := 0.0, 0.0, 0.0, 0
		for _, i := range known {
			if IsMissing(b[i]) {
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
		for _, i := range known {
			if IsMissing(b[i]) {
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
		for _, i := range known {
			if IsMissing(b[i]) {
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
		for _, i := range known {
			if IsMissing(b[i]) {
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
