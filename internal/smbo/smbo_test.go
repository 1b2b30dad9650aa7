package smbo_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/smbo"
)

// explore profiles up to budget configurations the way the Controller's loop
// does: ask PickNext for the next column given a fixed surrogate, sample it
// from truth, and carry the incumbent forward. It returns the picks in order.
func explore(truth, mean, variance []float64, known int, policy smbo.Policy, budget int, seed uint64) []int {
	row := make([]float64, len(truth))
	for i := range row {
		row[i] = math.NaN()
	}
	incumbent := math.Inf(-1)
	if known >= 0 {
		row[known], incumbent = truth[known], truth[known]
	}
	var picks []int
	for len(picks) < budget {
		next, _ := smbo.PickNext(row, mean, variance, incumbent, policy, &seed)
		if next < 0 {
			break
		}
		row[next] = truth[next]
		incumbent = math.Max(incumbent, truth[next])
		picks = append(picks, next)
	}
	return picks
}

// TestExpectedImprovementProperties checks the closed-form EI: zero when the
// mean is far below the incumbent with no uncertainty, positive with
// uncertainty, monotone in the mean.
func TestExpectedImprovementProperties(t *testing.T) {
	if ei := smbo.ExpectedImprovement(0, 0, 1); ei != 0 {
		t.Errorf("EI with mean<best, sigma=0: got %f, want 0", ei)
	}
	if ei := smbo.ExpectedImprovement(2, 0, 1); ei != 1 {
		t.Errorf("EI with mean>best, sigma=0: got %f, want mean-best=1", ei)
	}
	if ei := smbo.ExpectedImprovement(0, 1, 1); ei <= 0 {
		t.Errorf("EI with uncertainty must be positive, got %f", ei)
	}
	f := func(a, b uint8) bool {
		mu1 := float64(a) / 16
		mu2 := mu1 + float64(b)/16 + 0.01
		return smbo.ExpectedImprovement(mu2, 1, 2) >= smbo.ExpectedImprovement(mu1, 1, 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOptimizeFindsMaximum: with a perfect surrogate, EI must find the best
// column in far fewer samples than the column count.
func TestOptimizeFindsMaximum(t *testing.T) {
	truth := []float64{1, 3, 2, 9, 4, 5, 0.5, 8, 7, 6, 2.5, 3.5}
	variance := make([]float64, len(truth))
	for i := range variance {
		variance[i] = 0.25
	}
	picks := explore(truth, truth, variance, 0, smbo.EI, 3, 1)
	found := false
	for _, i := range picks {
		found = found || i == 3
	}
	if !found {
		t.Errorf("EI picked %v in 3 explorations; the maximum is column 3", picks)
	}
}

// TestPoliciesDiffer: Greedy goes straight to the top predicted mean;
// Variance goes to the most uncertain column.
func TestPoliciesDiffer(t *testing.T) {
	mean := []float64{1, 5, 2}
	variance := []float64{0.01, 0.01, 4}
	row := []float64{2, math.NaN(), math.NaN()}
	rng := uint64(9)
	next, _ := smbo.PickNext(row, mean, variance, 2, smbo.Greedy, &rng)
	if next != 1 {
		t.Errorf("Greedy picked %d, want 1 (highest mean)", next)
	}
	next, _ = smbo.PickNext(row, mean, variance, 2, smbo.Variance, &rng)
	if next != 2 {
		t.Errorf("Variance picked %d, want 2 (highest uncertainty)", next)
	}
}

// TestStopRules: Naive stops as soon as EI is marginal; Cautious requires
// the decreasing-EI history and a stalled improvement too.
func TestStopRules(t *testing.T) {
	inf := math.Inf(1)
	// Naive: relative EI below epsilon → stop, regardless of history.
	if !smbo.ShouldStop(smbo.StopNaive, 0.05, 10, 0.4, inf, inf, inf) {
		t.Error("Naive should stop when EI/incumbent < eps")
	}
	if smbo.ShouldStop(smbo.StopNaive, 0.05, 10, 0.6, inf, inf, inf) {
		t.Error("Naive should continue when EI/incumbent >= eps")
	}
	// Cautious: same marginal EI but fresh history → continue.
	if smbo.ShouldStop(smbo.StopCautious, 0.05, 10, 0.4, inf, inf, inf) {
		t.Error("Cautious must not stop without a decreasing-EI history")
	}
	// Cautious: decreasing EI + marginal + stalled → stop.
	if !smbo.ShouldStop(smbo.StopCautious, 0.05, 10, 0.3, 0.5, 0.9, 0.0) {
		t.Error("Cautious should stop when all three conditions hold")
	}
	// Cautious: recent improvement keeps it going.
	if smbo.ShouldStop(smbo.StopCautious, 0.05, 10, 0.3, 0.5, 0.9, 0.2) {
		t.Error("Cautious must not stop right after a real improvement")
	}
}

// TestRandomPolicyCoverage: the Random policy eventually samples everything,
// each column once, and then has nothing left to pick.
func TestRandomPolicyCoverage(t *testing.T) {
	n := 10
	truth := make([]float64, n)
	for i := range truth {
		truth[i] = float64(i)
	}
	picks := explore(truth, make([]float64, n), make([]float64, n), -1, smbo.Random, n+1, 4)
	seen := map[int]bool{}
	for _, i := range picks {
		seen[i] = true
	}
	if len(picks) != n || len(seen) != n {
		t.Errorf("Random explored %v: want each of the %d columns once", picks, n)
	}
}

// unprunedPickNext is PickNext as it was before EI pruning, kept as the
// oracle: it computes the EI of every candidate column.
func unprunedPickNext(row, mean, variance []float64, incumbent float64, policy smbo.Policy, rng *uint64) (int, float64) {
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
		ei := smbo.ExpectedImprovement(mu, math.Sqrt(va), incumbent)
		var score float64
		switch policy {
		case smbo.EI:
			score = ei
		case smbo.Greedy:
			score = mu
		case smbo.Variance:
			if mu != 0 {
				score = va / math.Abs(mu)
			} else {
				score = va
			}
		case smbo.Random:
			score = smbo.Xorshift01(rng)
		}
		if score > bestScore {
			bestScore, next, bestEI = score, i, ei
		}
	}
	if next < 0 && nUnexplored > 0 {
		for i := range row {
			if math.IsNaN(row[i]) {
				return i, math.Inf(1)
			}
		}
	}
	return next, bestEI
}

// TestPickNextMatchesUnpruned: pruning by the EI bound changes nothing — the
// same column, the same EI bits and the same generator state as computing
// every EI, under every policy, on random surrogates with zero, negative and
// NaN variances, NaN means, means up to 40 σ from the incumbent, repeated
// columns (equal EIs and equal bounds) and incumbents of −Inf and 0. The EI
// policy computes each candidate's σ and bound once, in the pass that finds
// the floor, and its selection loop reads them back: that pass must have met
// every one of those kinds of candidate.
func TestPickNextMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pruned, byFloor := 0, 0
	var met boundCases
	for n := 0; n < 20000; n++ {
		cols := 1 + rng.Intn(60)
		row, mean, variance := make([]float64, cols), make([]float64, cols), make([]float64, cols)
		incumbent := []float64{math.Inf(-1), 0, rng.NormFloat64()}[rng.Intn(3)]
		for i := range row {
			row[i] = math.NaN()
			if rng.Intn(4) == 0 {
				row[i] = rng.NormFloat64()
			}
			sigma := math.Exp(4 * rng.NormFloat64())
			variance[i] = sigma * sigma
			switch rng.Intn(10) {
			case 0:
				variance[i] = 0
			case 1:
				variance[i] = -variance[i]
			case 2:
				variance[i] = math.NaN()
			}
			base := incumbent
			if math.IsInf(base, 0) {
				base = 0
			}
			mean[i] = base + 40*(2*rng.Float64()-1)*sigma
			switch rng.Intn(10) {
			case 0:
				mean[i] = math.NaN()
			case 1:
				mean[i] = math.Round(mean[i])
			}
			if i > 0 && rng.Intn(4) == 0 { // a repeat of an earlier column
				j := rng.Intn(i)
				mean[i], variance[i] = mean[j], variance[j]
			}
		}
		for _, policy := range []smbo.Policy{smbo.EI, smbo.Greedy, smbo.Variance, smbo.Random} {
			seed := rng.Uint64() | 1
			gotRNG, wantRNG := seed, seed
			got, gotEI := smbo.PickNext(row, mean, variance, incumbent, policy, &gotRNG)
			want, wantEI := unprunedPickNext(row, mean, variance, incumbent, policy, &wantRNG)
			if got != want || math.Float64bits(gotEI) != math.Float64bits(wantEI) || gotRNG != wantRNG {
				t.Fatalf("case %d %v incumbent %v row %v mean %v variance %v: got (%d, %v), want (%d, %v)",
					n, policy, incumbent, row, mean, variance, got, gotEI, want, wantEI)
			}
		}
		sigma, bound, floor := smbo.EIBounds(row, mean, variance, incumbent)
		if err := met.count(row, mean, variance, incumbent, sigma, bound); err != "" {
			t.Fatalf("case %d row %v mean %v variance %v: %s", n, row, mean, variance, err)
		}
		p, f := countPruned(row, mean, incumbent, sigma, bound, floor)
		pruned, byFloor = pruned+p, byFloor+f
	}
	t.Logf("%d columns pruned, %d of them by the floor alone; bound pass met %+v", pruned, byFloor, met)
	if byFloor == 0 || pruned == byFloor {
		t.Error("the test does not reach both pruning rules")
	}
	for name, c := range map[string]int{
		"NaN mean": met.nanMean, "NaN variance": met.nanVar, "negative variance": met.negVar,
		"zero variance": met.zeroVar, "equal bounds": met.equalBounds,
	} {
		if c == 0 {
			t.Errorf("the bound pass met no candidate with %s", name)
		}
	}
}

// boundCases tallies the kinds of candidate column (unexplored) the EI
// policy's bound pass met.
type boundCases struct {
	nanMean, nanVar, negVar, zeroVar int
	equalBounds                      int // a positive σ whose bound equals an earlier candidate's
}

// count checks what the bound pass stored for every candidate — σ 0 for a
// variance that is not positive, otherwise √variance and eiBound — and
// tallies the candidate's kind. It returns a description of the first
// mismatch, or "".
func (c *boundCases) count(row, mean, variance []float64, incumbent float64, sigma, bound []float64) string {
	seen := map[float64]bool{}
	for i := range row {
		switch va := variance[i]; {
		case !math.IsNaN(row[i]):
			continue
		case math.IsNaN(mean[i]):
			c.nanMean++
			continue
		case !(va > 0):
			if sigma[i] != 0 {
				return fmt.Sprintf("column %d: variance %v stored σ %v, want 0", i, va, sigma[i])
			}
			switch {
			case math.IsNaN(va):
				c.nanVar++
			case va < 0:
				c.negVar++
			default:
				c.zeroVar++
			}
			continue
		}
		s := math.Sqrt(variance[i])
		b := smbo.EIBound(mean[i], s, incumbent)
		if math.Float64bits(sigma[i]) != math.Float64bits(s) || math.Float64bits(bound[i]) != math.Float64bits(b) {
			return fmt.Sprintf("column %d: stored σ %v bound %v, want %v and %v", i, sigma[i], bound[i], s, b)
		}
		if seen[b] {
			c.equalBounds++
		}
		seen[b] = true
	}
	return ""
}

// countPruned counts, from what the bound pass stored, the columns PickNext's
// EI policy passes over without computing their EI, and among them those that
// only the floor (the EI of the column with the highest bound) rules out.
func countPruned(row, mean []float64, incumbent float64, sigma, bound []float64, floor float64) (pruned, byFloor int) {
	best := math.Inf(-1)
	for i := range row {
		if !math.IsNaN(row[i]) || math.IsNaN(mean[i]) {
			continue
		}
		if sigma[i] > 0 && bound[i] < max(best, floor) {
			pruned++
			if bound[i] >= best {
				byFloor++
			}
			continue
		}
		best = max(best, smbo.ExpectedImprovement(mean[i], sigma[i], incumbent))
	}
	return pruned, byFloor
}

// TestEIBound: the EI never exceeds the bound PickNext prunes by, over a dense
// grid of u = (μ − best)/σ from −40 to 40 at scales of σ and best far apart.
func TestEIBound(t *testing.T) {
	for _, sigma := range []float64{1e-6, 0.01, 1, 3.7, 1e4} {
		for _, best := range []float64{0, -2.5, 1, 1e3} {
			for k := -40000; k <= 40000; k++ {
				u := float64(k) / 1e3
				mu := best + u*sigma
				ei, bound := smbo.ExpectedImprovement(mu, sigma, best), smbo.EIBound(mu, sigma, best)
				if !(ei <= bound) {
					t.Fatalf("σ=%v best=%v u=%v: EI %v above the bound %v", sigma, best, u, ei, bound)
				}
			}
		}
	}
}
