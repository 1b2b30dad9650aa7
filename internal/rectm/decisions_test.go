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
func TestDecisionsGolden(t *testing.T) {
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
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(decisionsGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(decisionsGolden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with UPDATE_GOLDEN=1): %v", decisionsGolden, err)
	}
	if sb.String() != string(want) {
		t.Errorf("tuner decisions drifted from %s — if intentional, regenerate with UPDATE_GOLDEN=1.\n--- got\n%s--- want\n%s", decisionsGolden, sb.String(), want)
	}
}
