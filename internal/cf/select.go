package cf

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Candidate is one (algorithm, hyper-parameters) point evaluated during
// model selection.
type Candidate struct {
	// Name describes the candidate.
	Name string
	// New constructs the predictor.
	New func() Predictor
	// Score is filled by SelectModel (cross-validated MAPE in rating
	// space; lower is better).
	Score float64
}

// DefaultCandidates returns the search space used by the Recommender: KNN
// over {similarity × K × centering} and MF over {d × epochs × lr × reg}. The
// space mirrors §5.1's "selection of CF algorithm and setting of its
// hyper-parameters".
func DefaultCandidates() []Candidate {
	var out []Candidate
	for _, sim := range []Similarity{Cosine, Pearson, Euclidean} {
		for _, k := range []int{3, 5, 10, 20} {
			for _, mc := range []bool{false, true} {
				sim, k, mc := sim, k, mc
				name := (&KNN{K: k, Sim: sim, MeanCenter: mc}).Name()
				out = append(out, Candidate{
					Name: name,
					New:  func() Predictor { return &KNN{K: k, Sim: sim, MeanCenter: mc} },
				})
			}
		}
	}
	for _, d := range []int{4, 8, 16} {
		for _, lr := range []float64{0.01, 0.02} {
			for _, reg := range []float64{0.02, 0.1} {
				d, lr, reg := d, lr, reg
				out = append(out, Candidate{
					Name: "mf",
					New:  func() Predictor { return &MF{D: d, LR: lr, Reg: reg, Epochs: 60} },
				})
			}
		}
	}
	return out
}

// SelectModel performs random-search model selection with n-fold
// cross-validation over the training matrix (§5.1: random search [4] plus
// n-fold cross-validation). Up to budget candidates are drawn at random and
// scored; the best-scoring candidate and the scored subset are returned,
// best first.
//
// Scoring hides a fraction of each validation row's known entries, predicts
// them from the remainder, and accumulates the mean absolute percentage
// error in rating space. A candidate whose error so far already bounds its
// score above that of an earlier candidate cannot be selected, so it is
// abandoned and scored +Inf; every other score, and the selection, is the
// one scoring every fold gives. Candidates are scored on up to GOMAXPROCS
// goroutines; everything random is drawn beforehand, in candidate order, so
// the scores are the same on any number of them.
func SelectModel(train *Matrix, cands []Candidate, folds, budget int, seed uint64) (best Candidate, scored []Candidate) {
	scored = scoreCandidates(train, cands, folds, budget, seed, true)
	bestScore := math.Inf(1)
	for _, cand := range scored {
		if cand.Score < bestScore {
			bestScore = cand.Score
			best = cand
		}
	}
	sort.SliceStable(scored, func(a, b int) bool { return scored[a].Score < scored[b].Score })
	return best, scored
}

// scoreCandidates cross-validates the random-search subset of cands and
// returns it in the order drawn. With abandon set, candidate n is dropped
// (Score +Inf) as soon as the lower bound on its score exceeds T_n, the
// lowest score of the candidates before it that were not dropped; strictly,
// so a tie keeps the first minimum. Without it every candidate runs every
// fold.
//
// A worker can only stop a candidate against the earlier candidates that
// have already finished, whose best score is never below T_n. The rule
// itself is applied afterwards, in candidate order, to the running sums
// each candidate recorded, so which candidates are dropped does not depend
// on how the workers interleaved.
func scoreCandidates(train *Matrix, cands []Candidate, folds, budget int, seed uint64, abandon bool) []Candidate {
	if folds < 2 {
		folds = 5
	}
	if folds > train.Rows {
		folds = train.Rows
	}
	rng := splitmix64(seed + 0x2545F4914F6CDD1D)

	// Random-search subset of the candidate space.
	idx := permutation(len(cands), &rng)
	if budget <= 0 || budget > len(idx) {
		budget = len(idx)
	}
	idx = idx[:budget]

	perms := make([][]int, len(idx))
	for n := range perms {
		perms[n] = permutation(train.Rows, &rng)
	}
	hidden := hiddenCounts(train)
	runs := make([][]partial, len(idx))
	// finished holds the bits of each candidate's score once it has run
	// every fold, +Inf before.
	finished := make([]atomic.Uint64, len(idx))
	for n := range finished {
		finished[n].Store(math.Float64bits(math.Inf(1)))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(idx)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < len(idx); n = int(next.Add(1)) - 1 {
				runs[n] = crossValidate(train, cands[idx[n]].New, folds, perms[n], hidden, func() float64 {
					t := math.Inf(1)
					for m := 0; abandon && m < n; m++ {
						if s := math.Float64frombits(finished[m].Load()); s < t {
							t = s
						}
					}
					return t
				})
				if len(runs[n]) > folds {
					finished[n].Store(math.Float64bits(runs[n][folds].score()))
				}
			}
		}()
	}
	wg.Wait()

	scored := make([]Candidate, len(idx))
	incumbent := math.Inf(1)
	for n, run := range runs {
		scored[n] = cands[idx[n]]
		scored[n].Score = math.Inf(1)
		if abandon && beaten(run, folds, incumbent) {
			continue
		}
		scored[n].Score = run[folds].score()
		if scored[n].Score < incumbent {
			incumbent = scored[n].Score
		}
	}
	return scored
}

// permutation draws a uniform shuffle of 0..n-1.
func permutation(n int, rng *uint64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rand01(rng) * float64(i+1))
		if j > i {
			j = i
		}
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// partial is a candidate's cross-validation after some of its folds: the
// error sum and count so far, and how many errors the folds still to run
// can add at most.
type partial struct {
	err       float64
	cnt, rest int
}

// score is the mean error once every fold has run.
func (p partial) score() float64 {
	if p.cnt == 0 {
		return math.Inf(1)
	}
	return p.err / float64(p.cnt)
}

// bound is a lower bound on the final score: errors are non-negative, so
// the final sum is no smaller and the final count at most cnt+rest, and
// rounding keeps both inequalities.
func (p partial) bound() float64 { return p.err / float64(p.cnt+p.rest) }

// hiddenCounts counts, row by row, the entries cross-validation hides and
// can score: the first half of the known entries, unless the row has fewer
// than two, skipping zero ratings.
func hiddenCounts(train *Matrix) []int {
	out := make([]int, train.Rows)
	for u, row := range train.Data {
		known := knownIndices(row)
		if len(known) < 2 {
			continue
		}
		for _, i := range known[:len(known)/2] {
			if row[i] != 0 {
				out[u]++
			}
		}
	}
	return out
}

// beaten reports whether a candidate's running sums show, before some fold
// after the first, a score bound above t.
func beaten(run []partial, folds int, t float64) bool {
	for f := 1; f < len(run) && f < folds; f++ {
		if run[f].bound() > t {
			return true
		}
	}
	return false
}

// crossValidate runs n-fold CV of a predictor constructor over rows, folds
// being consecutive runs of perm, and returns the running sums before the
// first fold and after each fold it ran. Before every fold after the first
// it stops if the score's lower bound exceeds incumbent().
func crossValidate(train *Matrix, newP func() Predictor, folds int, perm, hidden []int, incumbent func() float64) []partial {
	n := train.Rows
	var p partial
	for _, u := range perm {
		p.rest += hidden[u]
	}
	sums := append(make([]partial, 0, folds+1), p)
	for f := 0; f < folds; f++ {
		if f > 0 && p.bound() > incumbent() {
			break
		}
		lo, hi := f*n/folds, (f+1)*n/folds
		val := perm[lo:hi]
		inVal := make(map[int]bool, len(val))
		for _, u := range val {
			inVal[u] = true
			p.rest -= hidden[u]
		}
		sub := &Matrix{Cols: train.Cols}
		for u := 0; u < n; u++ {
			if !inVal[u] {
				sub.Data = append(sub.Data, train.Data[u])
				sub.Rows++
			}
		}
		if sub.Rows > 0 {
			p.add(train, newP, sub, val)
		}
		sums = append(sums, p)
	}
	return sums
}

// add fits a predictor on sub and adds its errors on the validation rows.
func (p *partial) add(train *Matrix, newP func() Predictor, sub *Matrix, val []int) {
	pr := newP()
	pr.Fit(sub)
	for _, u := range val {
		row := train.Data[u]
		known := knownIndices(row)
		if len(known) < 2 {
			continue
		}
		// Hide half of the known entries.
		visible := make([]float64, len(row))
		for i := range visible {
			visible[i] = Missing
		}
		for _, i := range known[len(known)/2:] {
			visible[i] = row[i]
		}
		pred := pr.Predict(visible)
		for _, i := range known[:len(known)/2] {
			if IsMissing(pred[i]) || row[i] == 0 {
				continue
			}
			p.err += math.Abs(row[i]-pred[i]) / math.Abs(row[i])
			p.cnt++
		}
	}
}

func knownIndices(row []float64) []int {
	var out []int
	for i, v := range row {
		if !IsMissing(v) {
			out = append(out, i)
		}
	}
	return out
}
