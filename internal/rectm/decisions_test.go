package rectm_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/cf"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/rectm"
	"repro/internal/smbo"
)

const decisionsGolden = "testdata/decisions.golden"

// tuneCorpus is the corpus of the tune-shift benchmark (benchmarks/e2e/tune.go):
// the 300-workload performance-model truth matrix of machine A at seed 555,
// the first 3 of every 10 rows training the recommender, 7 held out.
func tuneCorpus() (train *cf.Matrix, heldOut [][]float64, ids []int) {
	prof := machine.A()
	gen := &perfmodel.Generator{Machine: prof, Seed: 555}
	truth := gen.Matrix(gen.Workloads(300), prof.Configs(), perfmodel.Throughput)
	train = &cf.Matrix{Cols: truth.Cols}
	for u, row := range truth.Data {
		if u%10 < 3 {
			train.Data = append(train.Data, row)
			train.Rows++
		} else {
			heldOut = append(heldOut, row)
			ids = append(ids, u)
		}
	}
	return train, heldOut, ids
}

// decisionDigest optimizes every stride-th held-out workload exactly as the
// benchmark's callers do and hashes what the controller decided: the explored
// sequence, the recommendation and the bits of its KPI.
func decisionDigest(t *testing.T, train *cf.Matrix, heldOut [][]float64, ids []int, stride int, newPred func() cf.Predictor) string {
	t.Helper()
	rec, err := rectm.Train(train, true, rectm.Options{Predictor: newPred, Learners: 10, Seed: 555})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for n := 0; n < len(heldOut); n += stride {
		row := heldOut[n]
		res := rec.Optimize(func(i int) float64 { return row[i] }, nil, smbo.Options{
			Policy: smbo.EI, Stop: smbo.StopCautious, Epsilon: 0.01, Seed: uint64(ids[n]) * 7,
		})
		put(uint64(len(res.Explored)))
		for _, i := range res.Explored {
			put(uint64(i))
		}
		put(uint64(int64(res.Best)))
		put(math.Float64bits(res.BestKPI))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDecisionsGolden pins what the tuner decides, bit for bit, so that a
// change to the cost of the decision path (similarity kernel, bagging,
// Optimize's bookkeeping) can show it changed nothing else: one digest over
// all 210 held-out workloads for every KNN similarity × K × centering of the
// model-selection space, plus an MF-bagged ensemble (every 7th workload: MF
// fold-in is slow). Regenerate with UPDATE_GOLDEN=1 only for a change that
// means to alter decisions.
//
// The file was recorded on the dense kernel (rowSimilarity over every column,
// all neighbours sorted with sort.Slice). The cosine, euclidean and MF lines
// are that recording. The eight Pearson lines are not: two co-rated entries
// always correlate ±1, so on an active row with two known entries 87 of the 90
// training rows tie (4 distinct values, an ulp apart), and the dense kernel
// ranked them however its unstable sort left them. The sparse kernel ranks
// equal similarities by row; cf's TestPredictMatchesReference shows it equals
// the dense kernel, bit for bit, once that one's sort is stable.
func TestDecisionsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, 5000 optimizations: nothing for the race detector, and 100 s under it")
	}
	train, heldOut, ids := tuneCorpus()
	got := map[string]string{}
	for _, sim := range []cf.Similarity{cf.Cosine, cf.Pearson, cf.Euclidean} {
		for _, k := range []int{3, 5, 10, 20} {
			for _, mc := range []bool{false, true} {
				sim, k, mc := sim, k, mc
				newPred := func() cf.Predictor { return &cf.KNN{K: k, Sim: sim, MeanCenter: mc} }
				got[fmt.Sprintf("%s/k%d", newPred().Name(), k)] = decisionDigest(t, train, heldOut, ids, 1, newPred)
			}
		}
	}
	got["mf/d8"] = decisionDigest(t, train, heldOut, ids, 7, func() cf.Predictor {
		return &cf.MF{D: 8, LR: 0.02, Reg: 0.02, Epochs: 60}
	})

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s %s\n", name, got[name])
	}
	checkGolden(t, decisionsGolden, sb.String())
}

// checkGolden compares got with the golden file, or rewrites the file when
// UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with UPDATE_GOLDEN=1): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("drifted from %s — if intentional, regenerate with UPDATE_GOLDEN=1.\n--- got\n%s--- want\n%s", path, got, want)
	}
}

const selectModelGolden = "testdata/select_model.golden"

// TestSelectModelGolden pins model selection on the same corpus (5 folds, the
// default candidates, as tune-shift's set-up and every proteustm.Open run it):
// every candidate's cross-validation score, bit for bit and in ranking order,
// and the winner.
func TestSelectModelGolden(t *testing.T) {
	if raceEnabled {
		// TestModelSelectionPipeline and cf's tests run SelectModel's
		// goroutines under the detector in a second, not 11 s on every core.
		t.Skip("bits, not races")
	}
	train, _, _ := tuneCorpus()
	goodness := cf.GoodnessMatrix(train, true)
	norm := &cf.Distiller{}
	if err := norm.Fit(goodness); err != nil {
		t.Fatal(err)
	}
	ratings, _ := cf.NormalizeMatrix(norm, goodness)
	best, scored := cf.SelectModel(ratings, cf.DefaultCandidates(), 5, 0, 555)
	var sb strings.Builder
	fmt.Fprintf(&sb, "selected %s\n", best.Name)
	for _, c := range scored {
		fmt.Fprintf(&sb, "%s %016x\n", c.Name, math.Float64bits(c.Score))
	}
	checkGolden(t, selectModelGolden, sb.String())
}
