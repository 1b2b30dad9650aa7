package main

import (
	"fmt"
	"time"

	"repro/internal/cf"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/rectm"
	"repro/internal/smbo"
	"repro/internal/workloads"
)

const (
	// farDFO is the distance from the optimum past which an optimization did
	// not do its job (paper §6.3 reports a mean below 3 %).
	farDFO = 0.10
	// The accuracy gate of the run (see checkAccuracy): the paper's claim for
	// the mean distance from optimum, and twice the share of far results the
	// selected model has today (2.38 %).
	maxMDFO     = 0.03
	maxFarShare = 0.05
	tuneKPI     = perfmodel.Throughput
	splitPeriod = 10 // of every 10 truth rows ...
	splitTrain  = 3  // ... the first 3 train the recommender, 7 are held out
	// corpusSeed fixes the performance-model corpus (the paper, too, has one
	// corpus of about 300 workloads). Explorations per optimization ranged
	// from 4.9 to 6.7 between corpora, which moved ops_per_s by 40 %: far
	// more than any change to the tuner this benchmark is meant to show. The
	// run's seed decides only the order in which the held-out workloads
	// arrive, and a run replays all of them many times: on this workload the
	// seed does not vary the numbers, by design.
	corpusSeed = 555
)

// tuneEnv is a trained recommender with the held-out workloads it has never
// seen: the paper's §6.3 protocol replayed against ground truth.
type tuneEnv struct {
	rec      *rectm.Recommender
	ratings  *cf.Matrix // training ratings (for the PredictDist probe)
	heldOut  []heldOutRow
	selected string
	selectT  time.Duration // cf.SelectModel
	trainT   time.Duration // rectm.Train
}

// heldOutRow is one workload the recommender was not trained on: its row of
// the truth matrix and its index there.
type heldOutRow struct {
	id  int
	kpi []float64
}

// setupTune builds the truth matrix of the performance model for machine A,
// selects the CF model by cross-validation (the paper's off-line step),
// trains the bagged recommender on it, and shuffles the held-out workloads
// with the seed.
func setupTune(sz sizes, seed uint64) (*tuneEnv, error) {
	prof := machine.A()
	gen := &perfmodel.Generator{Machine: prof, Seed: corpusSeed}
	truth := gen.Matrix(gen.Workloads(sz.tuneWorkloads), prof.Configs(), tuneKPI)
	train := &cf.Matrix{Cols: truth.Cols}
	e := &tuneEnv{}
	for u, row := range truth.Data {
		if u%splitPeriod < splitTrain {
			train.Data = append(train.Data, row)
			train.Rows++
		} else {
			e.heldOut = append(e.heldOut, heldOutRow{id: u, kpi: row})
		}
	}
	rng := workloads.NewRand(seed)
	for i := len(e.heldOut) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		e.heldOut[i], e.heldOut[j] = e.heldOut[j], e.heldOut[i]
	}
	hib := tuneKPI.HigherIsBetter()
	norm := &cf.Distiller{}
	goodness := cf.GoodnessMatrix(train, hib)
	if err := norm.Fit(goodness); err != nil {
		return nil, fmt.Errorf("tune-shift: %w", err)
	}
	e.ratings, _ = cf.NormalizeMatrix(norm, goodness)
	t0 := time.Now()
	best, _ := cf.SelectModel(e.ratings, cf.DefaultCandidates(), sz.tuneFolds, 0, corpusSeed)
	e.selectT = time.Since(t0)
	if best.New == nil {
		return nil, fmt.Errorf("tune-shift: model selection produced no candidate")
	}
	e.selected = best.Name
	t0 = time.Now()
	rec, err := rectm.Train(train, hib, rectm.Options{Predictor: best.New, Learners: 10, Seed: corpusSeed})
	e.trainT = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("tune-shift: %w", err)
	}
	e.rec = rec
	return e, nil
}

// tunePass tallies one caller's first pass over the held-out workloads. The
// counts depend on the corpus alone — not on the seed, the machine or how long
// the run lasts — so they repeat bit for bit.
type tunePass struct {
	steps, explored, far uint64
	dfos                 []float64 // distance from optimum of each result
	us                   []float64 // duration of each optimization
}

func (p *tunePass) farShare() float64 { return float64(p.far) / float64(max(p.steps, 1)) }

// mdfo is the mean distance from optimum (summed in sorted order, so the
// arrival order the seed picked does not reach the last bits).
func (p *tunePass) mdfo() float64 { return metrics.Mean(sorted(p.dfos)) }

// tuneCaller replays workload shifts: each step hands the controller the next
// held-out workload and lets it explore, sampling KPIs from the truth row.
type tuneCaller struct {
	env  *tuneEnv
	next int

	steps, far, invalid uint64 // over every step taken
	pass                tunePass
}

// step runs one optimization and reports whether it did its job: the result
// must honour the controller's contract (something explored, the best among
// it) — otherwise it is counted invalid — and land within farDFO of the
// optimum — otherwise it is counted far.
func (c *tuneCaller) step(tb *spanBuf) bool {
	wl := c.env.heldOut[c.next%len(c.env.heldOut)]
	first := c.next < len(c.env.heldOut)
	c.next++
	row := wl.kpi
	t0 := time.Now()
	res := c.env.rec.Optimize(func(i int) float64 { return row[i] }, nil, smbo.Options{
		Policy: smbo.EI, Stop: smbo.StopCautious, Epsilon: 0.01, Seed: uint64(wl.id) * 7,
	})
	t1 := time.Now()
	tb.record("rectm.optimize", 0, uint64(c.next), t0, t1)
	c.steps++
	valid := false
	for _, i := range res.Explored {
		valid = valid || i == res.Best
	}
	if !valid {
		c.invalid++
		return false
	}
	dfo := metrics.DFO(row, res.Best, tuneKPI.HigherIsBetter())
	isFar := !(dfo <= farDFO)
	if first {
		p := &c.pass
		p.steps++
		p.explored += uint64(len(res.Explored))
		p.dfos, p.us = append(p.dfos, dfo), append(p.us, float64(t1.Sub(t0).Nanoseconds())/1e3)
		if isFar {
			p.far++
		}
	}
	if isFar {
		c.far++
		return false
	}
	return true
}

// checkAccuracy is tune-shift's output check, the gate on what the tuner
// decided: over one full pass of the held-out workloads the mean distance
// from optimum must stay below the paper's 3 % and at most maxFarShare of the
// optimizations may land more than farDFO from the optimum. A far result is a
// valid answer and not a failed operation — it only earns no throughput — so
// without this check a tuner change could buy speed with accuracy.
func (c *tuneCaller) checkAccuracy() (attempted, failed uint64, note string) {
	p := &c.pass
	note = fmt.Sprintf("tune-shift: model=%s first pass: %d optimizations, %.2f explorations each, mean distance from optimum %.2f%% (limit %.0f%%), far (>%.0f%%) %.2f%% (limit %.0f%%); whole run: %d optimizations, %d far, %d invalid",
		c.env.selected, p.steps, float64(p.explored)/float64(max(p.steps, 1)), 100*p.mdfo(), 100*maxMDFO,
		100*farDFO, 100*p.farShare(), 100*maxFarShare, c.steps, c.far, c.invalid)
	if int(p.steps)+int(c.invalid) < len(c.env.heldOut) {
		return 1, 1, note + " — the pass did not finish"
	}
	attempted = 2
	if !(p.mdfo() <= maxMDFO) {
		failed++
	}
	if p.farShare() > maxFarShare {
		failed++
	}
	return attempted, failed, note
}
