// Package smbo implements the steps of the Controller's Sequential
// Model-Based Bayesian Optimization (§5.2 of the paper): the acquisition
// function that picks the next configuration to profile from the bagged CF
// ensemble's predictive distribution, and the Cautious early-stopping
// heuristic. The loop that alternates them with sampling, and owns the
// surrogate (*cf.Bagging), is rectm.Recommender.Optimize.
//
// Conventions: ratings are higher-is-better (goodness space), so the
// optimizer MAXIMIZES; Expected Improvement is computed for maximization.
package smbo

import (
	"math"
	"sync"
)

// Policy selects the acquisition function used to pick the next
// configuration to profile — the four contenders of Fig. 5.
type Policy int

const (
	// EI picks the configuration with maximal Expected Improvement over
	// the incumbent (ProteusTM's choice).
	EI Policy = iota
	// Greedy picks the configuration with the highest predictive mean.
	Greedy
	// Variance picks the configuration with the highest predictive
	// uncertainty (variance/mean ratio).
	Variance
	// Random samples uniformly among unexplored configurations (the
	// Paragon/Quasar-style baseline).
	Random
)

// String returns the policy name used in experiment output.
func (p Policy) String() string {
	switch p {
	case EI:
		return "EI"
	case Greedy:
		return "Greedy"
	case Variance:
		return "Variance"
	case Random:
		return "Random"
	}
	return "?"
}

// StopRule selects the early-stopping predicate (Fig. 6).
type StopRule int

const (
	// StopNone explores until the budget is exhausted.
	StopNone StopRule = iota
	// StopCautious is ProteusTM's heuristic: stop only when the EI
	// decreased over the last two iterations AND the latest EI is
	// marginal relative to the incumbent AND the last exploration's
	// realized improvement was below epsilon.
	StopCautious
	// StopNaive trusts the model blindly: stop as soon as the maximal EI
	// falls below epsilon times the incumbent.
	StopNaive
)

// Options configures an optimization run.
type Options struct {
	Policy  Policy
	Stop    StopRule
	Epsilon float64 // ε of §5.2; default 0.01
	// MaxExplorations bounds the sampled configurations (in addition to
	// the initial profile); 0 means the number of columns.
	MaxExplorations int
	// Seed drives the Random policy.
	Seed uint64
	// NoFinalCheck skips the final profile-the-recommendation step, so an
	// exploration budget translates into an exact sample count (used by
	// the fixed-budget sweeps of Fig. 5).
	NoFinalCheck bool
}

// PickNext applies the acquisition policy over unexplored configurations
// (NaN entries of row), returning the chosen column and its EI value (EI is
// reported for the stop rule regardless of policy). It returns -1 when
// everything predictable has been explored. Under the EI policy a column
// whose EI bound (eiBound) is below the best EI so far, or below the EI of
// the column with the highest bound, is passed over without computing its
// EI: it could not have won, so the answer is the same. Every candidate's σ
// and bound are computed once, by the pass that finds that column (see
// bounds.fill), and read back by the selection loop.
func PickNext(row, mean, variance []float64, incumbent float64, policy Policy, rng *uint64) (int, float64) {
	bestScore := math.Inf(-1)
	bestEI := 0.0
	next := -1
	nUnexplored := 0
	floor := math.Inf(-1)
	var b *bounds
	if policy == EI {
		b = boundsPool.Get().(*bounds)
		defer boundsPool.Put(b)
		floor = b.fill(row, mean, variance, incumbent)
	}
	for i := range row {
		if !math.IsNaN(row[i]) {
			continue
		}
		nUnexplored++
		mu, va := mean[i], variance[i]
		if math.IsNaN(mu) {
			continue
		}
		var sigma float64
		if b != nil {
			sigma = b.sigma[i]
			if sigma > 0 && b.bound[i] < max(bestScore, floor) {
				continue
			}
		} else {
			if math.IsNaN(va) || va < 0 {
				va = 0
			}
			sigma = math.Sqrt(va)
		}
		ei := ExpectedImprovement(mu, sigma, incumbent)
		var score float64
		switch policy {
		case EI:
			score = ei
		case Greedy:
			score = mu
		case Variance:
			if mu != 0 {
				score = va / math.Abs(mu)
			} else {
				score = va
			}
		case Random:
			score = xorshift01(rng)
		}
		if score > bestScore {
			bestScore, next, bestEI = score, i, ei
		}
	}
	if next < 0 && nUnexplored > 0 {
		// Model cannot predict anything (e.g. empty ensemble): fall
		// back to the first unexplored column.
		for i := range row {
			if math.IsNaN(row[i]) {
				return i, math.Inf(1)
			}
		}
	}
	return next, bestEI
}

// ShouldStop evaluates the early-stop predicate before spending the next
// exploration. prevEI and prevPrevEI are the EI values of the two previous
// iterations (+Inf before enough history exists); lastImprovement is the
// relative KPI improvement realized by the previous exploration.
func ShouldStop(rule StopRule, eps, incumbent, nextEI, prevEI, prevPrevEI, lastImprovement float64) bool {
	if math.IsInf(incumbent, -1) {
		return false // nothing sampled yet
	}
	rel := nextEI / math.Max(math.Abs(incumbent), 1e-12)
	switch rule {
	case StopNaive:
		return rel < eps
	case StopCautious:
		decreasing := nextEI < prevEI && prevEI < prevPrevEI
		marginal := rel < eps
		stalled := lastImprovement <= eps
		return decreasing && marginal && stalled
	}
	return false
}

// ExpectedImprovement is the closed-form EI for a Gaussian posterior under
// maximization: EI = σ·[u·Φ(u) + φ(u)] with u = (μ − best)/σ (§5.2; the
// paper states the minimization form, mirrored here because ratings are
// higher-is-better).
func ExpectedImprovement(mu, sigma, best float64) float64 {
	if sigma <= 0 {
		if mu > best {
			return mu - best
		}
		return 0
	}
	u := (mu - best) / sigma
	return sigma * (u*stdNormCDF(u) + stdNormPDF(u))
}

// bounds is the EI policy's scratch: per candidate column, σ and, when σ is
// positive, the EI bound. PickNext takes one from boundsPool per call.
type bounds struct {
	sigma, bound []float64
}

var boundsPool = sync.Pool{New: func() any { return new(bounds) }}

// fill stores every candidate column's σ — √variance when the variance is
// positive, 0 otherwise — and, where σ is positive, its eiBound, and returns
// the EI of the candidate with the highest bound (the first of equals): the
// column PickNext's EI policy picks has at least that much. It returns -Inf
// when no candidate has a positive variance. A candidate is an unexplored
// column with a mean; other columns' entries are left as they were.
func (b *bounds) fill(row, mean, variance []float64, incumbent float64) float64 {
	if cap(b.sigma) < len(row) {
		b.sigma, b.bound = make([]float64, len(row)), make([]float64, len(row))
	}
	b.sigma, b.bound = b.sigma[:len(row)], b.bound[:len(row)]
	top, arg := math.Inf(-1), -1
	for i := range row {
		if !math.IsNaN(row[i]) || math.IsNaN(mean[i]) {
			continue
		}
		if !(variance[i] > 0) {
			b.sigma[i] = 0
			continue
		}
		sigma := math.Sqrt(variance[i])
		bound := eiBound(mean[i], sigma, incumbent)
		b.sigma[i], b.bound[i] = sigma, bound
		if bound > top {
			top, arg = bound, i
		}
	}
	if arg < 0 {
		return math.Inf(-1)
	}
	return ExpectedImprovement(mean[arg], b.sigma[arg], incumbent)
}

// eiBound bounds ExpectedImprovement(mu, sigma, best) from above for
// sigma > 0, at the cost of one division and no exp or erfc. With
// u = (mu − best)/σ, EI/σ ≤ u⁺ + φ(|u|)/(1+u²) by the Mills-ratio bound
// Q(t) ≥ t·φ(t)/(1+t²), and φ(t) ≤ φ(0)/(1+t²/2) because e^x ≥ 1+x; the
// factor 1+1e-9 covers the rounding of both sides. A NaN u gives a NaN bound,
// which no comparison passes over.
func eiBound(mu, sigma, best float64) float64 {
	u := (mu - best) / sigma
	u2 := u * u
	return sigma * (max(u, 0) + stdNormPDF0/((1+u2)*(1+u2/2))) * (1 + 1e-9)
}

// stdNormPDF0 is φ(0).
const stdNormPDF0 = 1 / (math.Sqrt2 * math.SqrtPi)

func stdNormPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

func stdNormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

func xorshift01(state *uint64) float64 {
	x := *state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*state = x
	return float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}
