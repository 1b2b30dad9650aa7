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
// scored; the best-scoring candidate and the scored subset are returned.
//
// Scoring hides a fraction of each validation row's known entries, predicts
// them from the remainder, and accumulates the mean absolute percentage
// error in rating space. Candidates are scored on up to GOMAXPROCS
// goroutines; everything random is drawn beforehand, in candidate order, so
// the scores are the same on any number of them.
func SelectModel(train *Matrix, cands []Candidate, folds, budget int, seed uint64) (best Candidate, scored []Candidate) {
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

	scored = make([]Candidate, len(idx))
	perms := make([][]int, len(idx))
	for n := range perms {
		perms[n] = permutation(train.Rows, &rng)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(idx)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < len(idx); n = int(next.Add(1)) - 1 {
				scored[n] = cands[idx[n]]
				scored[n].Score = crossValidate(train, scored[n].New, folds, perms[n])
			}
		}()
	}
	wg.Wait()

	bestScore := math.Inf(1)
	for _, cand := range scored {
		if cand.Score < bestScore {
			bestScore = cand.Score
			best = cand
		}
	}
	sort.Slice(scored, func(a, b int) bool { return scored[a].Score < scored[b].Score })
	return best, scored
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

// crossValidate scores a predictor constructor with n-fold CV over rows,
// folds being consecutive runs of perm.
func crossValidate(train *Matrix, newP func() Predictor, folds int, perm []int) float64 {
	n := train.Rows
	totalErr, totalCnt := 0.0, 0
	for f := 0; f < folds; f++ {
		lo, hi := f*n/folds, (f+1)*n/folds
		val := perm[lo:hi]
		inVal := make(map[int]bool, len(val))
		for _, u := range val {
			inVal[u] = true
		}
		sub := &Matrix{Cols: train.Cols}
		for u := 0; u < n; u++ {
			if !inVal[u] {
				sub.Data = append(sub.Data, train.Data[u])
				sub.Rows++
			}
		}
		if sub.Rows == 0 {
			continue
		}
		p := newP()
		p.Fit(sub)
		for _, u := range val {
			row := train.Data[u]
			known := knownIndices(row)
			if len(known) < 2 {
				continue
			}
			// Hide half of the known entries.
			hidden := known[:len(known)/2]
			visible := make([]float64, len(row))
			for i := range visible {
				visible[i] = Missing
			}
			for _, i := range known[len(known)/2:] {
				visible[i] = row[i]
			}
			pred := p.Predict(visible)
			for _, i := range hidden {
				if IsMissing(pred[i]) || row[i] == 0 {
					continue
				}
				totalErr += math.Abs(row[i]-pred[i]) / math.Abs(row[i])
				totalCnt++
			}
		}
	}
	if totalCnt == 0 {
		return math.Inf(1)
	}
	return totalErr / float64(totalCnt)
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
