package smbo_test

import (
	"math"
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
