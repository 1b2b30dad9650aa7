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
	// means holds the mean of every training row (MeanCenter only).
	means []float64
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
	k.fill(out, q, full)
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
	pred   []float64 // Bagging: the current learner's row
	counts []int     // Bagging: learners that predicted each column
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

// nearest selects the learner's K most similar rows from q.sims into q.nb,
// by similarity descending and, among equals, position in the learner's row
// set ascending.
func (k *KNN) nearest(q *query) {
	kk := k.K
	if kk <= 0 {
		kk = 10
	}
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

// fill writes the learner's row for the query into out: known entries are
// echoed unless full, every other column is the similarity-weighted average
// of the nearest rows that rated it (Missing when none did). q.sims must be
// current for the learner's matrix and similarity.
func (k *KNN) fill(out []float64, q *query, full bool) {
	k.nearest(q)
	cols := len(q.active)
	q.num, q.den = resize(q.num, cols), resize(q.den, cols)
	num, den := q.num[:cols], q.den[:cols] // the reslice spares the loop below its bounds checks
	clear(num)
	clear(den)
	// Neighbour by neighbour, so each training row is read front to back;
	// every column still sums its neighbours in rank order.
	for _, nb := range q.nb {
		mean := 0.0 // v - 0 is v, bit for bit
		if k.MeanCenter {
			mean = k.means[nb.row]
		}
		abs := math.Abs(nb.sim)
		for i, v := range k.train.Data[nb.row][:cols] {
			if IsMissing(v) {
				continue
			}
			num[i] += nb.sim * (v - mean)
			den[i] += abs
		}
	}
	for i, a := range q.active {
		switch {
		case !full && !IsMissing(a):
			out[i] = a
		case den[i] == 0:
			out[i] = Missing
		case k.MeanCenter:
			out[i] = num[i]/den[i] + q.mean
		default:
			out[i] = num[i] / den[i]
		}
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
