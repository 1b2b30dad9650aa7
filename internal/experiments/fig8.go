package experiments

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/perfmodel"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// Fig8Result reproduces Fig. 8 and Table 6: online optimization of dynamic
// workloads. Four applications each pass through three workload phases; the
// full ProteusTM runtime (oblivious to the applications — its training set
// is the synthetic offline UM) must track the moving optimum. For every
// phase the harness also measures the whole configuration space exhaustively
// to locate the true per-phase optima, the Best-Fixed-on-Average (BFA)
// configuration, and the sequential baseline.
type Fig8Result struct {
	Apps []Fig8App
}

// Fig8App is one application's run.
type Fig8App struct {
	Name string
	// Configs is the tuned space.
	Configs []config.Config
	// Truth[phase][config] is the measured throughput (ops/s).
	Truth [][]float64
	// OptIdx[phase] is the per-phase optimal configuration.
	OptIdx []int
	// BFAIdx is the best fixed configuration on average.
	BFAIdx int
	// SeqThroughput[phase] is the sequential (GlobalLock:1t) baseline.
	SeqThroughput []float64
	// ProteusKPI[phase] is ProteusTM's steady-state mean throughput in
	// the phase; ProteusDFO the distance from the phase optimum;
	// Explorations the number of profiled configurations in the phase.
	ProteusKPI, ProteusDFO []float64
	Explorations           []int
	// CrossDFO[i][j] is the DFO of phase-i's optimal configuration when
	// run in phase j (the off-diagonal of Table 6).
	CrossDFO [][]float64
	// Timeline is ProteusTM's KPI trace.
	Timeline []core.TimelinePoint
}

// phased wraps three workload variants and switches between them.
type phased struct {
	name   string
	phases []workloads.Workload
	cur    atomic.Int32
}

func (p *phased) Name() string { return p.name }

// Setup implements workloads.Workload: every phase's state is built up
// front so phase switches are instantaneous.
func (p *phased) Setup(h *tm.Heap, rng *workloads.Rand) error {
	for _, ph := range p.phases {
		if err := ph.Setup(h, rng); err != nil {
			return err
		}
	}
	return nil
}

// Op implements workloads.Workload: dispatch to the current phase.
func (p *phased) Op(r workloads.Runner, self int, rng *workloads.Rand) {
	p.phases[p.cur.Load()].Op(r, self, rng)
}

// fig8Apps builds the four applications with three contrasting phases each.
func fig8Apps() []*phased {
	return []*phased{
		{name: "rbtree", phases: []workloads.Workload{
			&workloads.RBTree{KeyRange: 1 << 8, UpdateRatio: 0.05, InitialSize: 1 << 7},
			&workloads.RBTree{KeyRange: 1 << 15, UpdateRatio: 0.5, InitialSize: 1 << 13},
			&workloads.RBTree{KeyRange: 1 << 6, UpdateRatio: 0.9, InitialSize: 1 << 5},
		}},
		{name: "stmbench7", phases: []workloads.Workload{
			&workloads.STMBench7{Depth: 4, Fanout: 3, ReadDominated: true},
			&workloads.STMBench7{Depth: 4, Fanout: 3},
			&workloads.STMBench7{Depth: 3, Fanout: 4, AtomicChain: 64},
		}},
		{name: "tpcc", phases: []workloads.Workload{
			// Read-heavy (order-status/stock-level dominated): scales.
			&workloads.TPCC{Warehouses: 8, Districts: 10, Customers: 128, Items: 1 << 12,
				Mix: [5]int{5, 10, 55, 58, 100}},
			// Single hot warehouse, write-dominated: serializes.
			&workloads.TPCC{Warehouses: 1, Districts: 2, Customers: 64, Items: 1 << 10,
				Mix: [5]int{55, 96, 97, 98, 100}},
			// Standard TPC-C mix.
			&workloads.TPCC{Warehouses: 4, Districts: 4, Customers: 128, Items: 1 << 13},
		}},
		{name: "memcached", phases: []workloads.Workload{
			&workloads.Memcached{Buckets: 1 << 12, KeyRange: 1 << 14, GetRatio: 0.95},
			&workloads.Memcached{Buckets: 1 << 8, KeyRange: 1 << 10, GetRatio: 0.5},
			&workloads.Memcached{Buckets: 1 << 12, KeyRange: 1 << 15, GetRatio: 0.05},
		}},
	}
}

// fig8Configs is the tuned space for the live experiment: a reduced version
// of the Machine-A space (Table 3) sized so that exhaustive ground-truth
// measurement stays tractable in a test harness.
func fig8Configs(maxThreads int) []config.Config {
	var threads []int
	for t := 1; t <= maxThreads; t *= 2 {
		threads = append(threads, t)
	}
	var out []config.Config
	for _, alg := range []config.AlgID{config.TL2, config.TinySTM, config.NOrec, config.SwissTM} {
		for _, t := range threads {
			out = append(out, config.Config{Alg: alg, Threads: t})
		}
	}
	for _, t := range threads {
		out = append(out, config.Config{Alg: config.HTM, Threads: t, Budget: 2, Policy: htm.PolicyGiveUp})
		out = append(out, config.Config{Alg: config.HTM, Threads: t, Budget: 8, Policy: htm.PolicyHalve})
	}
	return out
}

// Fig8 runs the live experiment.
func Fig8(scale Scale) (Fig8Result, error) {
	res := Fig8Result{}
	maxThreads := 8
	window := 150 * time.Millisecond
	phaseDur := 9 * time.Second
	if scale == Quick {
		window = 60 * time.Millisecond
		phaseDur = 2 * time.Second
	}
	for _, app := range fig8Apps() {
		a, err := runFig8App(app, maxThreads, window, phaseDur)
		if err != nil {
			return res, fmt.Errorf("fig8 %s: %w", app.name, err)
		}
		res.Apps = append(res.Apps, a)
	}
	return res, nil
}

func runFig8App(app *phased, maxThreads int, window, phaseDur time.Duration) (Fig8App, error) {
	cfgs := fig8Configs(maxThreads)
	out := Fig8App{Name: app.name, Configs: cfgs}

	// Build the runtime first so application state lives in its heap. The
	// training UM is synthetic: the application is completely absent from
	// the training set, as in §6.4.
	train := perfmodel.SyntheticTraining(cfgs, 60, 0xF16)
	rt, err := core.New(core.Options{
		HeapWords:       1 << 23,
		MaxThreads:      maxThreads,
		Configs:         cfgs,
		TrainKPI:        train,
		KPI:             core.Throughput,
		SamplePeriod:    window,
		SettleTime:      window / 2,
		MaxExplorations: 8,
		Seed:            99,
	})
	if err != nil {
		return out, err
	}
	if err := app.Setup(rt.Heap(), workloads.NewRand(21)); err != nil {
		return out, err
	}
	driver := &workloads.Driver{Workload: app, Runner: rt.Pool, MaxThreads: maxThreads, Seed: 33}
	if err := driver.Start(); err != nil {
		return out, err
	}
	defer stopDriver(driver, rt.Pool, maxThreads)

	// --- Ground truth: measure every configuration in every phase. Two
	// windows are averaged per point: the per-phase optimum is a max over
	// dozens of noisy estimates and would otherwise be biased upward,
	// inflating every DFO.
	measure := func() float64 {
		before := driver.Ops()
		start := time.Now()
		time.Sleep(2 * window)
		return float64(driver.Ops()-before) / time.Since(start).Seconds()
	}
	for phase := range app.phases {
		app.cur.Store(int32(phase))
		row := make([]float64, len(cfgs))
		for i, cfg := range cfgs {
			if err := rt.Pool.Reconfigure(cfg); err != nil {
				return out, err
			}
			time.Sleep(window / 3) // settle
			row[i] = measure()
		}
		out.Truth = append(out.Truth, row)
		// Sequential baseline.
		if err := rt.Pool.Reconfigure(config.Config{Alg: config.GlobalLock, Threads: 1}); err != nil {
			return out, err
		}
		time.Sleep(window / 3)
		out.SeqThroughput = append(out.SeqThroughput, measure())
	}
	for _, row := range out.Truth {
		out.OptIdx = append(out.OptIdx, argMax(row))
	}
	out.BFAIdx = bestFixedOnAverage(out.Truth)
	out.CrossDFO = crossDFO(out.Truth, out.OptIdx)

	// --- ProteusTM run: phases switch mid-flight; the Monitor must
	// detect each change and re-optimize.
	app.cur.Store(0)
	rt.Start()
	phaseMarks := make([]time.Duration, 0, len(app.phases))
	runStart := time.Now()
	for phase := range app.phases {
		app.cur.Store(int32(phase))
		phaseMarks = append(phaseMarks, time.Since(runStart))
		time.Sleep(phaseDur)
	}
	rt.Stop()
	out.Timeline = rt.Timeline()

	// Summarize steady-state KPI per phase (excluding exploration samples
	// and the first settle window after each phase mark).
	for phase := range app.phases {
		lo := phaseMarks[phase]
		hi := time.Duration(1<<62 - 1)
		if phase+1 < len(phaseMarks) {
			hi = phaseMarks[phase+1]
		}
		// Summarize only the post-adaptation tail of the phase: detection
		// plus exploration consume the head (the dips visible in the
		// paper's Fig. 8 timelines around each workload change).
		var vals []float64
		for _, pt := range out.Timeline {
			if pt.At <= lo+phaseDur*11/20 || pt.At > hi || pt.Exploring || pt.KPI == 0 {
				continue
			}
			vals = append(vals, pt.KPI)
		}
		mean := meanOf(vals)
		opt := out.Truth[phase][out.OptIdx[phase]]
		dfo := 0.0
		if opt > 0 {
			dfo = (opt - mean) / opt
			if dfo < 0 {
				dfo = 0
			}
		}
		out.ProteusKPI = append(out.ProteusKPI, mean)
		out.ProteusDFO = append(out.ProteusDFO, dfo)
		expl := 0
		for _, pt := range out.Timeline {
			if pt.Exploring && pt.At > lo && pt.At <= hi {
				expl++
			}
		}
		out.Explorations = append(out.Explorations, expl)
	}
	return out, nil
}

func argMax(xs []float64) int {
	best, idx := xs[0], 0
	for i, v := range xs {
		if v > best {
			best, idx = v, i
		}
	}
	return idx
}

// bestFixedOnAverage picks the configuration with the best mean normalized
// throughput across phases.
func bestFixedOnAverage(truth [][]float64) int {
	nCfg := len(truth[0])
	best, bestIdx := -1.0, 0
	for c := 0; c < nCfg; c++ {
		sum := 0.0
		for _, row := range truth {
			sum += row[c] / row[argMax(row)]
		}
		if sum > best {
			best, bestIdx = sum, c
		}
	}
	return bestIdx
}

// crossDFO computes DFO[i][j]: phase-i's optimum evaluated in phase j.
func crossDFO(truth [][]float64, optIdx []int) [][]float64 {
	n := len(truth)
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			opt := truth[j][optIdx[j]]
			v := truth[j][optIdx[i]]
			out[i][j] = (opt - v) / opt
		}
	}
	return out
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Print renders Fig. 8's summary and Table 6.
func (r Fig8Result) Print(w io.Writer) {
	header(w, "Figure 8 / Table 6: online optimization of dynamic workloads (live run)")
	for _, app := range r.Apps {
		fmt.Fprintf(w, "\n%s — per-phase summary (throughput ops/s):\n", app.Name)
		fmt.Fprintf(w, "%-8s%-22s%14s%14s%14s%12s%8s\n",
			"phase", "optimal config", "optimal", "ProteusTM", "sequential", "DFO", "expl")
		for p := range app.Truth {
			opt := app.Truth[p][app.OptIdx[p]]
			fmt.Fprintf(w, "%-8d%-22s%14.0f%14.0f%14.0f%12s%8d\n",
				p+1, app.Configs[app.OptIdx[p]].String(), opt,
				app.ProteusKPI[p], app.SeqThroughput[p], pct(app.ProteusDFO[p]),
				app.Explorations[p])
		}
		fmt.Fprintf(w, "Table 6 cross-phase DFO (%%, row = config of phase i, col = evaluated in phase j; BFA = %s):\n",
			app.Configs[app.BFAIdx].String())
		for i := range app.CrossDFO {
			fmt.Fprintf(w, "  opt%d: ", i+1)
			for j := range app.CrossDFO[i] {
				fmt.Fprintf(w, "%8.0f", 100*app.CrossDFO[i][j])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\nShape check: ProteusTM within a few % of each phase optimum with few explorations;")
	fmt.Fprintln(w, "each phase's optimum loses big (often >50%) in foreign phases.")
}
