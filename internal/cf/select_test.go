package cf_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cf"
)

// lowRank builds a rows × cols matrix of ratings in [1, 10] from three
// latent factors plus noise, with a share of entries missing.
func lowRank(rows, cols int, missing float64, seed int64) *cf.Matrix {
	rng := rand.New(rand.NewSource(seed))
	factors := func(n int) [][3]float64 {
		out := make([][3]float64, n)
		for i := range out {
			for d := range out[i] {
				out[i][d] = rng.Float64()
			}
		}
		return out
	}
	us, is := factors(rows), factors(cols)
	m := cf.NewMatrix(rows, cols)
	for u := range m.Data {
		for i := range m.Data[u] {
			v := 1 + 3*(us[u][0]*is[i][0]+us[u][1]*is[i][1]+us[u][2]*is[i][2]) + 0.3*rng.Float64()
			if rng.Float64() >= missing {
				m.Data[u][i] = v
			}
		}
	}
	return m
}

// TestSelectModelMatchesExhaustive is the oracle of early abandoning: on
// every matrix, budget and fold count, SelectModel selects the candidate
// that scoring every fold selects (the first minimum in draw order), every
// score it keeps is bit-identical to that candidate's every-fold score, and
// every candidate it drops scores, on every fold, above the incumbent it was
// dropped against.
func TestSelectModelMatchesExhaustive(t *testing.T) {
	// Identical rows: the uncentred KNNs score 0, so at seed 7 the first
	// candidate drawn (one of them) wins and the later ones tie with it.
	same := cf.NewMatrix(10, 8)
	for u := range same.Data {
		copy(same.Data[u], []float64{1, 3, 2, 5, 4, 6, 0.5, 7})
	}
	cands := cf.DefaultCandidates()
	for _, tc := range []struct {
		name string
		m    *cf.Matrix
	}{
		{"dense", lowRank(20, 10, 0, 1)},
		{"missing30", lowRank(20, 10, 0.3, 2)},
		{"scaled", scaledCopies()},
		{"same", same},
	} {
		for _, budget := range []int{0, 12} {
			for _, folds := range []int{4, 5} {
				t.Run(fmt.Sprintf("%s/budget%d/folds%d", tc.name, budget, folds), func(t *testing.T) {
					full := cf.ScoreCandidatesForTest(tc.m, cands, folds, budget, 7, false)
					kept := cf.ScoreCandidatesForTest(tc.m, cands, folds, budget, 7, true)
					want, incumbent, dropped := 0, math.Inf(1), 0
					for n := range full {
						if full[n].Score < full[want].Score {
							want = n
						}
						if sameScore(kept[n], full[n]) {
							incumbent = min(incumbent, kept[n].Score)
							continue
						}
						dropped++
						if !math.IsInf(kept[n].Score, 1) || !(full[n].Score > incumbent) {
							t.Errorf("candidate %d (%s) kept score %v, every fold scores %v, incumbent %v",
								n, full[n].Name, kept[n].Score, full[n].Score, incumbent)
						}
					}
					if tc.name == "same" && want != 0 {
						t.Fatalf("the first candidate drawn no longer wins: candidate %d does", want)
					}
					if tc.name == "dense" && dropped == 0 {
						t.Error("nothing dropped on a dense matrix")
					}
					best, scored := cf.SelectModel(tc.m, cands, folds, budget, 7)
					if !sameScore(best, full[want]) {
						t.Errorf("selected %s (%v), every fold selects %s (%v)", best.Name, best.Score, full[want].Name, full[want].Score)
					}
					sort.SliceStable(kept, func(a, b int) bool { return kept[a].Score < kept[b].Score })
					for n := range scored {
						if !sameScore(scored[n], kept[n]) {
							t.Fatalf("SelectModel ranks %s (%v) %d-th, want %s (%v)", scored[n].Name, scored[n].Score, n, kept[n].Name, kept[n].Score)
						}
					}
					t.Logf("%d of %d candidates dropped", dropped, len(full))
				})
			}
		}
	}
}

func sameScore(a, b cf.Candidate) bool {
	return a.Name == b.Name && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}
