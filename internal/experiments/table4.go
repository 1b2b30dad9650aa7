package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/htm"
	"repro/internal/polytm"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// Table4Result reproduces Table 4: the steady-state overhead PolyTM's
// dispatch adds over running the same TM algorithm bare, per algorithm and
// thread count, averaged over a benchmark mix. The "HTM-naive" column is the
// ablation of the dual-code-path optimization: HTM with fully instrumented
// accesses.
type Table4Result struct {
	Threads  []int
	Backends []string
	// OverheadPct[backend][thread] is (bare − poly)/bare · 100.
	OverheadPct [][]float64
}

// table4Backends pairs each backend label with its bare algorithm and the
// PolyTM algorithm id (HTM-naive is measured bare-vs-bare against plain
// HTM, isolating the instrumentation cost itself).
type table4Backend struct {
	label string
	alg   config.AlgID
}

// Table4 measures the dispatch overhead on this machine.
func Table4(scale Scale) (Table4Result, error) {
	threads := []int{1, 4, 8}
	backends := []table4Backend{
		{"TL2", config.TL2},
		{"NOrec", config.NOrec},
		{"Swiss", config.SwissTM},
		{"Tiny", config.TinySTM},
		{"HTM-opt", config.HTM},
	}
	res := Table4Result{Threads: threads}
	window := 250 * time.Millisecond
	if scale == Quick {
		window = 80 * time.Millisecond
	}

	// Each measurement builds its own instance, so sets up its own state.
	mix := []func() workloads.Workload{
		func() workloads.Workload { return &workloads.HashMap{Buckets: 1 << 10, KeyRange: 1 << 13} },
		func() workloads.Workload { return &workloads.RBTree{KeyRange: 1 << 12} },
		func() workloads.Workload { return &workloads.Vacation{Relations: 1 << 11, Queries: 12} },
	}

	for _, b := range backends {
		res.Backends = append(res.Backends, b.label)
		var row []float64
		for _, t := range threads {
			var rel float64
			n := 0
			for _, wl := range mix {
				bare, poly, err := measurePair(wl, b.alg, t, window)
				if err != nil {
					return res, fmt.Errorf("table4 %s/%dt: %w", b.label, t, err)
				}
				rel += (bare - poly) / bare
				n++
			}
			row = append(row, 100*rel/float64(n))
		}
		res.OverheadPct = append(res.OverheadPct, row)
	}

	// HTM-naive: plain simulated HTM vs HTM with full instrumentation,
	// both bare (isolating the dual-path optimization's value).
	res.Backends = append(res.Backends, "HTM-naive")
	var naiveRow []float64
	for _, t := range threads {
		var rel float64
		n := 0
		for _, wl := range mix {
			fast, err := measureBare(wl, polytm.NewAlgorithm(config.HTM, htm.NewCM(5, htm.PolicyDecrease)), t, window)
			if err != nil {
				return res, err
			}
			slow, err := measureBare(wl, &htm.NaiveHTM{HTM: htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)}}, t, window)
			if err != nil {
				return res, err
			}
			rel += (fast - slow) / fast
			n++
		}
		naiveRow = append(naiveRow, 100*rel/float64(n))
	}
	res.OverheadPct = append(res.OverheadPct, naiveRow)
	return res, nil
}

// measurePair measures a workload bare and under PolyTM at the same
// configuration, returning the two throughputs.
func measurePair(newWL func() workloads.Workload, alg config.AlgID, threads int, window time.Duration) (bare, poly float64, err error) {
	cfg := config.Config{Alg: alg, Threads: threads, Budget: 5, Policy: htm.PolicyDecrease}

	// Bare run.
	bare, err = measureBare(newWL, polytm.NewAlgorithm(alg, htm.NewCM(cfg.Budget, cfg.Policy)), threads, window)
	if err != nil {
		return 0, 0, err
	}

	// PolyTM run.
	pool := polytm.New(1<<21, threads, cfg)
	poly, err = workloads.RunFixed(newWL(), pool, pool.Heap(), threads, window, 5)
	if err != nil {
		return 0, 0, err
	}
	return bare, poly, nil
}

// measureBare measures a fresh workload on one bare algorithm instance.
func measureBare(newWL func() workloads.Workload, alg tm.Algorithm, threads int, window time.Duration) (float64, error) {
	h := tm.NewHeap(1<<21, threads)
	return workloads.RunFixed(newWL(), workloads.NewBareRunner(alg, h, threads), h, threads, window, 5)
}

// Print renders the table.
func (r Table4Result) Print(w io.Writer) {
	header(w, "Table 4: PolyTM overhead (%) vs bare TM (negative = PolyTM faster, noise)")
	fmt.Fprintf(w, "%-10s", "#threads")
	for _, b := range r.Backends {
		fmt.Fprintf(w, "%12s", b)
	}
	fmt.Fprintln(w)
	for ti, t := range r.Threads {
		fmt.Fprintf(w, "%-10d", t)
		for bi := range r.Backends {
			fmt.Fprintf(w, "%12.1f", r.OverheadPct[bi][ti])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nShape check: dispatch overhead small (≈ ≤5%); HTM-naive several × worse than HTM-opt.")
}
