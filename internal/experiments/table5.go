package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/polytm"
	"repro/internal/workloads"
)

// Table5Result reproduces Table 5: the latency of a full reconfiguration
// (TM algorithm switch, which quiesces all threads and also changes the
// parallelism degree) under live load, for a long-transaction workload
// (TPC-C) and a short-transaction one (Memcached), across thread counts.
type Table5Result struct {
	Threads []int
	// LatencyMicros[workload][thread] is the mean switch latency in µs.
	Workloads     []string
	LatencyMicros [][]float64
}

// Table5 measures reconfiguration latency on this machine.
func Table5(scale Scale) (Table5Result, error) {
	threads := []int{1, 2, 4, 8}
	switches := 40
	if scale == Quick {
		switches = 12
	}
	res := Table5Result{Threads: threads}

	// Each measurement builds its own instance, so sets up its own state.
	apps := []func() workloads.Workload{
		func() workloads.Workload {
			return &workloads.TPCC{Warehouses: 2, Districts: 8, Customers: 128, Items: 1 << 12}
		},
		func() workloads.Workload { return &workloads.Memcached{Buckets: 1 << 12, KeyRange: 1 << 14} },
	}
	for _, newApp := range apps {
		name := newApp().Name()
		res.Workloads = append(res.Workloads, name)
		var row []float64
		for _, t := range threads {
			lat, err := measureSwitchLatency(newApp(), t, switches)
			if err != nil {
				return res, fmt.Errorf("table5 %s/%dt: %w", name, t, err)
			}
			row = append(row, lat)
		}
		res.LatencyMicros = append(res.LatencyMicros, row)
	}
	return res, nil
}

// measureSwitchLatency runs the workload at the given thread count and
// times Reconfigure calls that flip the TM algorithm back and forth.
func measureSwitchLatency(wl workloads.Workload, threads, switches int) (float64, error) {
	cfgA := config.Config{Alg: config.TL2, Threads: threads, Budget: 5}
	cfgB := config.Config{Alg: config.NOrec, Threads: threads, Budget: 5}
	pool := polytm.New(1<<21, threads, cfgA)
	if err := wl.Setup(pool.Heap(), workloads.NewRand(11)); err != nil {
		return 0, err
	}
	d := &workloads.Driver{Workload: wl, Runner: pool, MaxThreads: threads, Seed: 12}
	if err := d.Start(); err != nil {
		return 0, err
	}
	defer d.Stop()
	time.Sleep(30 * time.Millisecond) // warm up

	var total time.Duration
	for i := 0; i < switches; i++ {
		next := cfgB
		if i%2 == 1 {
			next = cfgA
		}
		start := time.Now()
		if err := pool.Reconfigure(next); err != nil {
			return 0, err
		}
		total += time.Since(start)
		time.Sleep(5 * time.Millisecond) // let transactions flow between switches
	}
	return float64(total.Microseconds()) / float64(switches), nil
}

// Print renders the table.
func (r Table5Result) Print(w io.Writer) {
	header(w, "Table 5: reconfiguration latency (µs), TM switch + thread quiesce under load")
	fmt.Fprintf(w, "%-24s", "benchmark")
	for _, t := range r.Threads {
		fmt.Fprintf(w, "%10d", t)
	}
	fmt.Fprintln(w)
	for wi, name := range r.Workloads {
		fmt.Fprintf(w, "%-24s", name)
		for ti := range r.Threads {
			fmt.Fprintf(w, "%10.0f", r.LatencyMicros[wi][ti])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nShape check: latency grows with thread count; long transactions (TPC-C)")
	fmt.Fprintln(w, "cost more than short ones (Memcached).")
}
