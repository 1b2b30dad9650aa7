// Package rectm assembles RecTM (§5 of the paper): the Recommender (a
// normalizing CF ensemble acting as performance predictor) and the
// Controller's SMBO exploration of new workloads. It implements the
// work-flow of Algorithm 2: off-line profiling of a training set of
// applications, rating distillation and Utility Matrix construction,
// CF-algorithm selection with random search and cross-validation, and the
// on-line sample–recommend loop for incoming workloads.
package rectm

import (
	"fmt"
	"math"

	"repro/internal/cf"
	"repro/internal/smbo"
)

// Options configures recommender training.
type Options struct {
	// Normalizer preprocesses KPI goodness into ratings; nil selects
	// ProteusTM's rating distillation.
	Normalizer cf.Normalizer
	// Predictor, when non-nil, fixes the base CF learner and skips model
	// selection (used by experiments that pin e.g. KNN-cosine).
	Predictor func() cf.Predictor
	// Learners is the bagging ensemble size (default 10, as the paper).
	Learners int
	// CVFolds and SearchBudget parameterize model selection.
	CVFolds, SearchBudget int
	// Seed drives every randomized component.
	Seed uint64
}

// Recommender is a trained RecTM instance for one machine profile and KPI.
type Recommender struct {
	// HigherIsBetter is the KPI orientation (ratings are always
	// higher-is-better internally).
	HigherIsBetter bool
	// Norm is the fitted normalizer.
	Norm cf.Normalizer
	// Ensemble is the bagged CF model.
	Ensemble *cf.Bagging
	// Selected reports the chosen base learner (after model selection).
	Selected string
	// Cols is the number of configurations (columns).
	Cols int
}

// Prepared is the cheap half of Train: the normalizer fitted on the training
// matrix and the matrix distilled to ratings. It already knows the reference
// configuration, which is all a runtime needs to boot; Train on it does the
// expensive half (model selection, ensemble fit) whenever the model is first
// wanted — internal/core does so when tuning starts, so a System that never
// tunes never pays for cross-validation.
type Prepared struct {
	higherIsBetter bool
	norm           cf.Normalizer
	ratings        *cf.Matrix
	opts           Options
}

// Prepare fits the normalizer on a training KPI matrix (rows = profiled
// workloads, columns = configurations, entries = raw KPI values; NaN where
// unprofiled) and fails exactly where Train would fail on the matrix itself.
func Prepare(trainKPI *cf.Matrix, higherIsBetter bool, opts Options) (*Prepared, error) {
	goodness := cf.GoodnessMatrix(trainKPI, higherIsBetter)
	norm := opts.Normalizer
	if norm == nil {
		norm = &cf.Distiller{}
	}
	if err := norm.Fit(goodness); err != nil {
		return nil, fmt.Errorf("rectm: normalizer fit: %w", err)
	}
	ratings, _ := cf.NormalizeMatrix(norm, goodness)
	return &Prepared{higherIsBetter: higherIsBetter, norm: norm, ratings: ratings, opts: opts}, nil
}

// RefCol is the reference configuration of the Recommender Train will return.
func (p *Prepared) RefCol() int { return refCol(p.norm) }

// Train selects the CF model by cross-validation (unless Options.Predictor
// pins it) and fits the bagging ensemble.
func (p *Prepared) Train() (*Recommender, error) {
	opts := p.opts
	newPred := opts.Predictor
	selected := "fixed"
	if newPred == nil {
		best, _ := cf.SelectModel(p.ratings, cf.DefaultCandidates(), opts.CVFolds, opts.SearchBudget, opts.Seed)
		if best.New == nil {
			return nil, fmt.Errorf("rectm: model selection produced no candidate")
		}
		newPred = best.New
		selected = best.Name
	}
	ens := &cf.Bagging{
		Learners: opts.Learners,
		New:      func(i int) cf.Predictor { return newPred() },
		Seed:     opts.Seed,
	}
	ens.Fit(p.ratings)
	return &Recommender{
		HigherIsBetter: p.higherIsBetter,
		Norm:           p.norm,
		Ensemble:       ens,
		Selected:       selected,
		Cols:           p.ratings.Cols,
	}, nil
}

// Train builds a Recommender from a training KPI matrix: Prepare, then the
// model selection and ensemble fit, in one call.
func Train(trainKPI *cf.Matrix, higherIsBetter bool, opts Options) (*Recommender, error) {
	p, err := Prepare(trainKPI, higherIsBetter, opts)
	if err != nil {
		return nil, err
	}
	return p.Train()
}

// RefCol returns the reference configuration the Controller should profile
// first: the distillation reference when available, otherwise column 0.
func (r *Recommender) RefCol() int { return refCol(r.Norm) }

func refCol(norm cf.Normalizer) int {
	if d, ok := norm.(*cf.Distiller); ok {
		return d.RefCol
	}
	return 0
}

// ratingsFor normalizes a raw goodness row. When the normalizer is the
// distiller and the reference configuration has not been sampled, the row's
// scale is re-estimated by a second pass: the scale-invariant neighbour
// consensus (PredictFull) supplies reference-scale predictions at the known
// columns, and least squares aligns the row to them — a sharper estimate
// than the distiller's column-means fallback.
func (r *Recommender) ratingsFor(goodness []float64) ([]float64, func(int, float64) float64) {
	ratings, denorm := r.Norm.NormalizeRow(-1, goodness)
	d, isDistill := r.Norm.(*cf.Distiller)
	if !isDistill || r.Ensemble == nil {
		return ratings, denorm
	}
	if ref := d.RefCol; ref >= 0 && ref < len(goodness) && !cf.IsMissing(goodness[ref]) {
		return ratings, denorm // exact scale available
	}
	consensus := r.Ensemble.PredictFull(ratings)
	num, den := 0.0, 0.0
	for i, g := range goodness {
		if cf.IsMissing(g) || cf.IsMissing(consensus[i]) || consensus[i] <= 0 {
			continue
		}
		num += g * g
		den += g * consensus[i]
	}
	if num <= 0 || den <= 0 {
		return ratings, denorm
	}
	scale := num / den
	return divideRow(make([]float64, len(goodness)), goodness, scale), func(_ int, rr float64) float64 { return rr * scale }
}

// ratingsInto is ratingsFor for Optimize, which normalizes the same row again
// after every sample: once the distillation reference has been sampled (the
// first thing Optimize does by default) the scale is that sample, exactly as
// Distiller.NormalizeRow takes it, and the ratings are written into dst.
func (r *Recommender) ratingsInto(dst, goodness []float64) []float64 {
	if d, ok := r.Norm.(*cf.Distiller); ok && d.RefCol >= 0 && d.RefCol < len(goodness) {
		if ref := goodness[d.RefCol]; !cf.IsMissing(ref) && ref > 0 {
			return divideRow(dst, goodness, ref)
		}
	}
	ratings, _ := r.ratingsFor(goodness)
	return ratings
}

// divideRow writes row/scale into dst, keeping missing entries missing.
func divideRow(dst, row []float64, scale float64) []float64 {
	for i, g := range row {
		if cf.IsMissing(g) {
			dst[i] = cf.Missing
		} else {
			dst[i] = g / scale
		}
	}
	return dst
}

// PredictKPI completes a raw KPI row: known entries are the sampled
// configurations, and the returned row carries KPI-space predictions for the
// rest (used for MAPE evaluation).
func (r *Recommender) PredictKPI(rawKPI []float64) []float64 {
	goodness := make([]float64, len(rawKPI))
	for i, v := range rawKPI {
		goodness[i] = cf.Goodness(v, r.HigherIsBetter)
	}
	ratings, denorm := r.ratingsFor(goodness)
	pred := r.Ensemble.Predict(ratings)
	out := make([]float64, len(rawKPI))
	for i := range out {
		if !cf.IsMissing(rawKPI[i]) {
			out[i] = rawKPI[i]
			continue
		}
		if cf.IsMissing(pred[i]) {
			out[i] = cf.Missing
			continue
		}
		g := denorm(i, pred[i])
		if r.HigherIsBetter {
			out[i] = g
		} else if g != 0 {
			out[i] = 1 / g
		} else {
			out[i] = cf.Missing
		}
	}
	return out
}

// OptResult is the outcome of one online optimization (§6.3 protocol).
type OptResult struct {
	// Explored lists sampled configurations in order.
	Explored []int
	// Best is the recommended configuration: best KPI among explored.
	Best int
	// BestKPI is its sampled KPI.
	BestKPI float64
}

// Optimize runs the Controller's exploration for a new workload. sample(i)
// profiles configuration i and returns its raw KPI. initial configures the
// first profiled columns (nil = the recommender's reference configuration).
// The protocol matches §6.3: profile the reference, explore per the
// acquisition policy until the stop rule fires, ask the model for its final
// recommendation, profile it if new, and return the best explored
// configuration. No configuration is profiled twice, also not one whose
// sample came back unusable (NaN, or 0 under a lower-is-better KPI — a failed
// reconfiguration): it stays out of the ratings and out of the candidates.
func (r *Recommender) Optimize(sample func(int) float64, initial []int, opts smbo.Options) OptResult {
	cols := r.Cols
	// One backing array for the call's three rows: raw goodness, its
	// ratings, and the candidate mask handed to PickNext.
	buf := make([]float64, 3*cols)
	raw, ratingsBuf, candidates := buf[:cols], buf[cols:2*cols], buf[2*cols:]
	for i := range raw {
		raw[i] = cf.Missing
	}
	tried := make([]bool, cols)
	failed := 0 // tried columns whose sample was unusable
	// A typical run explores 5 or 6 configurations.
	res := OptResult{Explored: make([]int, 0, 8)}
	takeSample := func(i int) {
		if tried[i] {
			return
		}
		tried[i] = true
		raw[i] = cf.Goodness(sample(i), r.HigherIsBetter)
		if cf.IsMissing(raw[i]) {
			failed++
		}
		res.Explored = append(res.Explored, i)
	}
	if len(initial) == 0 {
		initial = []int{r.RefCol()}
	}
	for _, i := range initial {
		takeSample(i)
	}

	eps := opts.Epsilon
	if eps == 0 {
		eps = 0.01
	}
	maxExpl := opts.MaxExplorations
	if maxExpl <= 0 || maxExpl > cols {
		maxExpl = cols
	}
	rng := opts.Seed*0x9E3779B97F4A7C15 + 0x106689D45497FDB5

	prevEI, prevPrevEI := math.Inf(1), math.Inf(1)
	lastImprovement := math.Inf(1)
	ratings := r.ratingsInto(ratingsBuf, raw)
	var mean, variance []float64
	current := false // mean and variance describe ratings as they are now
	for steps := 0; steps < maxExpl; steps++ {
		mean, variance = r.Ensemble.PredictDist(ratings)
		current = true
		incumbent := bestKnown(ratings)
		// PickNext takes every NaN entry for a candidate: mask the
		// columns that were tried and yielded no rating.
		pick := ratings
		if failed > 0 {
			pick = candidates
			for i, v := range ratings {
				if tried[i] && cf.IsMissing(v) {
					v = math.Inf(-1)
				}
				pick[i] = v
			}
		}
		next, nextEI := smbo.PickNext(pick, mean, variance, incumbent, opts.Policy, &rng)
		if next < 0 {
			break
		}
		if smbo.ShouldStop(opts.Stop, eps, incumbent, nextEI, prevEI, prevPrevEI, lastImprovement) {
			break
		}
		takeSample(next)
		ratings = r.ratingsInto(ratingsBuf, raw)
		current = false
		newBest := bestKnown(ratings)
		if newBest > incumbent && !math.IsInf(incumbent, -1) && incumbent != 0 {
			lastImprovement = (newBest - incumbent) / math.Abs(incumbent)
		} else {
			lastImprovement = 0
		}
		prevPrevEI, prevEI = prevEI, nextEI
	}

	// Final recommendation: the model's argmax; profile it if unexplored.
	if !opts.NoFinalCheck {
		if !current {
			mean, _ = r.Ensemble.PredictDist(ratings)
		}
		bestPred, bestIdx := math.Inf(-1), -1
		for i := 0; i < cols; i++ {
			v := mean[i]
			if !cf.IsMissing(ratings[i]) {
				v = ratings[i]
			} else if tried[i] {
				continue
			}
			if cf.IsMissing(v) {
				continue
			}
			if v > bestPred {
				bestPred, bestIdx = v, i
			}
		}
		if bestIdx >= 0 {
			takeSample(bestIdx)
		}
	}

	// Recommend the best explored configuration by true goodness.
	bestG, best := math.Inf(-1), -1
	for _, i := range res.Explored {
		if raw[i] > bestG {
			bestG, best = raw[i], i
		}
	}
	res.Best = best
	if best >= 0 {
		if r.HigherIsBetter {
			res.BestKPI = raw[best]
		} else if raw[best] != 0 {
			res.BestKPI = 1 / raw[best]
		}
	}
	return res
}

func bestKnown(row []float64) float64 {
	best := math.Inf(-1)
	for _, v := range row {
		if !cf.IsMissing(v) && v > best {
			best = v
		}
	}
	return best
}

// Grow incorporates a newly profiled workload into the recommender's
// knowledge (§7: the UM grows as applications are optimized — sampled rows
// become training data for the next workload). rawKPI is the workload's KPI
// row with NaN at unsampled configurations; the ensemble is refitted on the
// extended rating matrix. trainKPI is the matrix the recommender was
// trained on; the extended matrix is returned for the caller to keep.
func (r *Recommender) Grow(trainKPI *cf.Matrix, rawKPI []float64) (*cf.Matrix, error) {
	if len(rawKPI) != r.Cols {
		return nil, fmt.Errorf("rectm: row has %d columns, want %d", len(rawKPI), r.Cols)
	}
	extended := trainKPI.Clone()
	row := make([]float64, len(rawKPI))
	copy(row, rawKPI)
	extended.Data = append(extended.Data, row)
	extended.Rows++

	goodness := cf.GoodnessMatrix(extended, r.HigherIsBetter)
	if err := r.Norm.Fit(goodness); err != nil {
		return nil, fmt.Errorf("rectm: refit normalizer: %w", err)
	}
	ratings, _ := cf.NormalizeMatrix(r.Norm, goodness)
	r.Ensemble.Fit(ratings)
	return extended, nil
}
