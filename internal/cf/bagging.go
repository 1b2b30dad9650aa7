package cf

import "math"

// Bagging is the bootstrap-aggregated ensemble of CF learners the Controller
// uses as its probabilistic model (§5.2): k base predictors are trained on
// random row subsets of the training matrix, and the per-configuration mean
// and variance across their predictions provide the Gaussian pM(c|x) of the
// Expected-Improvement computation. The paper uses k = 10.
type Bagging struct {
	// Learners is the number of bagged models (default 10).
	Learners int
	// SampleFrac is the fraction of training rows drawn (with
	// replacement) for each learner (default 1.0, classic bootstrap).
	SampleFrac float64
	// New constructs a fresh base predictor for learner i.
	New func(i int) Predictor
	// Seed makes bootstrap sampling deterministic.
	Seed uint64

	models []Predictor
	// knn is set when every learner is a KNN with the same similarity and
	// overlap rule, so one set of similarities per query serves them all.
	knn bool
}

// Fit trains the ensemble on the rating matrix. Learners do not get copies of
// their bootstrap rows: a KNN learner holds row indices into train, any other
// predictor is fitted on a matrix whose rows alias train's.
func (b *Bagging) Fit(train *Matrix) {
	k := b.Learners
	if k <= 0 {
		k = 10
	}
	frac := b.SampleFrac
	if frac <= 0 {
		frac = 1
	}
	rng := splitmix64(b.Seed + 0x9E3779B97F4A7C15)
	b.models = make([]Predictor, k)
	for i := 0; i < k; i++ {
		n := int(frac * float64(train.Rows))
		if n < 1 {
			n = 1
		}
		rows := make([]int, n)
		for r := range rows {
			src := int(rand01(&rng) * float64(train.Rows))
			if src >= train.Rows {
				src = train.Rows - 1
			}
			rows[r] = src
		}
		m := b.New(i)
		if knn, ok := m.(*KNN); ok {
			knn.fit(train, rows)
		} else {
			boot := &Matrix{Rows: n, Cols: train.Cols, Data: make([][]float64, n)}
			for r, src := range rows {
				boot.Data[r] = train.Data[src]
			}
			m.Fit(boot)
		}
		b.models[i] = m
	}
	b.knn = sameQuery(b.models)
}

// sameQuery reports whether every learner is a KNN ranking training rows by
// the same similarities.
func sameQuery(models []Predictor) bool {
	first, ok := models[0].(*KNN)
	for _, m := range models {
		k, isKNN := m.(*KNN)
		ok = ok && isKNN && k.Sim == first.Sim && k.MinOverlap == first.MinOverlap
	}
	return ok
}

// Predict returns the ensemble-mean prediction row.
func (b *Bagging) Predict(active []float64) []float64 {
	mean, _ := b.PredictDist(active)
	return mean
}

// PredictDist returns, per configuration, the frequentist mean and variance
// of the base learners' predictions — the Gaussian surrogate the SMBO
// acquisition functions consume. Entries no learner can predict are NaN in
// both outputs.
func (b *Bagging) PredictDist(active []float64) (mean, variance []float64) {
	return b.dist(active, false)
}

// FullPredictor is the optional interface of predictors that can produce
// model output for every column (not echoing the known entries).
type FullPredictor interface {
	PredictFull(active []float64) []float64
}

// PredictFull returns the ensemble-mean model prediction for every column,
// using PredictFull on base learners that support it and Predict otherwise.
func (b *Bagging) PredictFull(active []float64) []float64 {
	mean, _ := b.dist(active, true)
	return mean
}

// dist aggregates every learner's row for the active row. KNN learners share
// the query: the active row's known indices and its similarity to each
// distinct training row are computed once, and each learner only selects its
// neighbours among its own rows.
func (b *Bagging) dist(active []float64, full bool) (mean, variance []float64) {
	cols := len(active)
	// mean and variance accumulate the sum and the sum of squares first.
	out := make([]float64, 2*cols)
	mean, variance = out[:cols:cols], out[cols:]
	q := newQuery(active)
	defer q.release()
	q.counts = resize(q.counts, cols)
	clear(q.counts)
	if b.knn {
		first := b.models[0].(*KNN)
		q.similarities(first.Sim, first.MinOverlap, first.train)
		q.pred = resize(q.pred, cols)
	}
	for _, m := range b.models {
		pred := q.pred
		if b.knn {
			m.(*KNN).fill(pred, q, full)
		} else if fp, ok := m.(FullPredictor); ok && full {
			pred = fp.PredictFull(active)
		} else {
			pred = m.Predict(active)
		}
		for i, v := range pred {
			if IsMissing(v) || math.IsInf(v, 0) {
				continue
			}
			mean[i] += v
			variance[i] += v * v
			q.counts[i]++
		}
	}
	for i := 0; i < cols; i++ {
		if q.counts[i] == 0 {
			mean[i], variance[i] = Missing, Missing
			continue
		}
		n := float64(q.counts[i])
		mean[i] /= n
		variance[i] = variance[i]/n - mean[i]*mean[i]
		if variance[i] < 0 {
			variance[i] = 0
		}
	}
	return mean, variance
}

// Name identifies the ensemble (after the first base learner).
func (b *Bagging) Name() string {
	if len(b.models) > 0 {
		return "bagged-" + b.models[0].Name()
	}
	return "bagged"
}
