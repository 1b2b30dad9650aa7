package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	proteustm "repro"
	"repro/internal/config"
	"repro/internal/htm"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// tmApp is one paper Table-1 application from the scenario registry.
type tmApp struct {
	name   string
	params scenario.Values
}

var tmAppList = []tmApp{
	{"rbtree", scenario.Values{"update": "0.2"}},
	{"hashmap", scenario.Values{"update": "0.5"}},
	{"tpcc", scenario.Values{"mix": "standard"}},
	{"vacation", nil},
}

// tmBackend is one pinned TM configuration (at the run's thread count).
type tmBackend struct {
	name string
	cfg  config.Config
}

var tmBackends = []tmBackend{
	{"norec", config.Config{Alg: config.NOrec}},
	{"tl2", config.Config{Alg: config.TL2}},
	{"htm", config.Config{Alg: config.HTM, Budget: 8, Policy: htm.PolicyGiveUp}},
}

// sampleEvery is how often a worker times an operation: the applications'
// transactions take around a microsecond, so timing each would measure the
// clock.
const sampleEvery = 64

// clockReadNs is what one time.Now() costs. The workers have no generator
// beside the applications' own Op; the two clock reads per timed operation
// are all the wall time they spend outside it.
func clockReadNs() float64 {
	return nsPerOp(5*time.Millisecond, func(int) { time.Now() })
}

// sysRunner lets the applications (written against workloads.Runner) run
// through the public API, PolyTM gate included.
type sysRunner []*proteustm.Worker

func (r sysRunner) Atomic(self int, fn func(proteustm.Txn)) { r[self].Atomic(fn) }

// appEnv is one application set up on its own system.
type appEnv struct {
	app tmApp
	sys *proteustm.System
	wl  workloads.Workload
	run sysRunner
}

func setupApps(seed uint64, threads int) ([]*appEnv, error) {
	var envs []*appEnv
	for i, app := range tmAppList {
		sc, ok := scenario.Lookup(app.name)
		if !ok {
			return nil, fmt.Errorf("tm-apps: scenario %q is not registered", app.name)
		}
		if err := sc.Validate(app.params); err != nil {
			return nil, err
		}
		wl, err := sc.Make(app.params)
		if err != nil {
			return nil, err
		}
		sys, err := proteustm.Open(proteustm.WithWorkers(threads), proteustm.WithSeed(serveSeed))
		if err != nil {
			return nil, err
		}
		env := &appEnv{app: app, sys: sys, wl: wl}
		envs = append(envs, env)
		if err := wl.Setup(sys.Heap(), workloads.NewRand(seed+uint64(i)*7919)); err != nil {
			closeApps(envs)
			return nil, fmt.Errorf("tm-apps: %s: %w", app.name, err)
		}
		for id := 0; id < threads; id++ {
			w, err := sys.Worker(id)
			if err != nil {
				closeApps(envs)
				return nil, err
			}
			env.run = append(env.run, w)
		}
	}
	return envs, nil
}

func closeApps(envs []*appEnv) {
	for _, e := range envs {
		e.sys.Close() //nolint:errcheck // Close only stops a tuner these systems never start
	}
}

// cellResult is one (application, backend) measurement: medians over the
// cell's visits.
type cellResult struct {
	app, backend  string
	opsPerS       float64
	p50Ms         float64
	p99Ms         float64
	tracedOpsPerS float64   // over the traced intervals of a traced run
	relOpsPerS    []float64 // each visit's throughput over the cell's median
	abortShare    float64
	ops           uint64
	err           error // invariant violated after a visit
}

// cellVisit is what one visit to a cell recorded, or several added up.
type cellVisit struct {
	plain, traced   loadResult // one interval a visit; traced only in a traced run
	commits, aborts uint64
	err             error // the first invariant violated
}

func (a *cellVisit) add(v cellVisit) {
	a.plain, a.traced = a.plain.append(v.plain), a.traced.append(v.traced)
	a.commits, a.aborts = a.commits+v.commits, a.aborts+v.aborts
	if a.err == nil {
		a.err = v.err
	}
}

// visitCell pins the backend, spins one worker per thread through a warm-up
// and one interval of length d, and checks the application's invariants
// afterwards. In a traced run a second interval follows, in which each timed
// operation leaves a span.
func visitCell(env *appEnv, be tmBackend, seed uint64, warmup, d time.Duration, tr *tracer) cellVisit {
	threads := len(env.run)
	cfg := be.cfg
	cfg.Threads = threads
	if err := env.sys.SetConfig(cfg); err != nil {
		return cellVisit{err: err}
	}
	slots := 1
	if tr != nil {
		slots = 2
	}
	before := env.sys.Stats()
	recs := make([][]ivStat, threads)
	var wg sync.WaitGroup
	ph := phase{start: time.Now().Add(warmup), d: d, n: slots}
	for id := 0; id < threads; id++ {
		recs[id] = make([]ivStat, slots)
		wg.Add(1)
		go func(id int, rec []ivStat) {
			defer wg.Done()
			tb := tr.buf()
			rng := workloads.NewRand(seed + uint64(id)*0x9E3779B97F4A7C15 + 1)
			var seq uint64
			for {
				for i := 1; i < sampleEvery; i++ {
					env.wl.Op(env.run, id, rng)
				}
				t0 := time.Now()
				env.wl.Op(env.run, id, rng)
				t1 := time.Now()
				seq++
				if t1.Before(ph.start) {
					continue
				}
				iv := ph.index(t1)
				if iv < 0 {
					return
				}
				rec[iv].ok += sampleEvery
				rec[iv].h.add(t1.Sub(t0))
				if iv == 1 {
					tb.record(env.app.name+"."+be.name, 0, seq<<8|uint64(id), t0, t1)
				}
			}
		}(id, recs[id])
	}
	wg.Wait()
	st := env.sys.Stats().Sub(before)
	v := cellVisit{commits: st.Commits, aborts: st.Aborts}
	if ver, ok := env.wl.(workloads.Verifier); ok {
		if err := ver.Verify(env.sys.Heap()); err != nil {
			v.err = fmt.Errorf("%s on %s: %w", env.app.name, be.name, err)
		}
	}
	v.plain = summarize(column(recs, 0), d)
	if tr != nil {
		v.traced = summarize(column(recs, 1), d)
	}
	return v
}

// runCells measures every application on every backend, in rounds: each round
// visits all the cells once, so a cell's intervals lie a round apart and a
// disturbance of a few seconds spoils one of them, which the cell's median
// drops, and not the whole cell.
func runCells(envs []*appEnv, seed uint64, t timing, tr *tracer) []cellResult {
	accs := make([]cellVisit, len(envs)*len(tmBackends))
	// As in the other workloads, collect the set-up's garbage once and leave
	// the collector to its own pacing: a collection forced at every visit
	// would let the garbage of one visit — which grows with the throughput —
	// set the resident peak, and peak_rss_mb must not move because the system
	// got faster.
	runtime.GC()
	for round := 0; round < t.cellRounds; round++ {
		for e, env := range envs {
			for b, be := range tmBackends {
				accs[e*len(tmBackends)+b].add(visitCell(env, be, seed+uint64(round)*104729, t.cellWarmup, t.cellInterval, tr))
			}
		}
	}
	var out []cellResult
	for e, env := range envs {
		for b, be := range tmBackends {
			acc := &accs[e*len(tmBackends)+b]
			res := cellResult{app: env.app.name, backend: be.name, err: acc.err, ops: acc.plain.ok + acc.traced.ok,
				opsPerS: median(acc.plain.opsPerS), p50Ms: median(acc.plain.p50Ms), p99Ms: median(acc.plain.p99Ms),
				tracedOpsPerS: median(acc.traced.opsPerS)}
			for _, x := range acc.plain.opsPerS {
				res.relOpsPerS = append(res.relOpsPerS, x/res.opsPerS)
			}
			if att := acc.commits + acc.aborts; att > 0 {
				res.abortShare = float64(acc.aborts) / float64(att)
			}
			out = append(out, res)
		}
	}
	return out
}
