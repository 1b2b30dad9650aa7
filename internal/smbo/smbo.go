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
// everything predictable has been explored.
func PickNext(row, mean, variance []float64, incumbent float64, policy Policy, rng *uint64) (int, float64) {
	bestScore := math.Inf(-1)
	bestEI := 0.0
	next := -1
	nUnexplored := 0
	for i := range row {
		if !math.IsNaN(row[i]) {
			continue
		}
		nUnexplored++
		mu, va := mean[i], variance[i]
		if math.IsNaN(mu) {
			continue
		}
		if math.IsNaN(va) || va < 0 {
			va = 0
		}
		ei := ExpectedImprovement(mu, math.Sqrt(va), incumbent)
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
