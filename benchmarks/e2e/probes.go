package main

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	proteustm "repro"
	"repro/internal/bench"
	"repro/internal/cf"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/smbo"
	"repro/internal/stm"
	"repro/internal/tm"
)

// The traced run. Per-layer metrics come only from here, end-to-end metrics
// only from the untraced run. It has two parts:
//
//  1. the workload itself, alternating untraced and traced intervals in one
//     process: load.* — the tail percentiles, the run's own noise reading,
//     the generator's overhead and what recording spans costs — and the
//     layers the workload is made of (tm.* from tm-apps' cells, rectm.* from
//     tune-shift's first pass);
//  2. one probe for every layer the workload did not measure itself, each
//     timing calls into that layer's public functions. A traced run reports
//     every per-layer metric, so the probes have to share what is left of the
//     run and are short; a layer's long measurement is the traced run of the
//     workload that layer does the work in.

// layerMetric declares one per-layer metric; BENCHMARK.json lists the same
// names (the smoke test compares the two).
type layerMetric struct{ name, unit, better string }

func perLayerMetrics() []layerMetric {
	m := []layerMetric{
		{"wire.get_us", "us", "lower"}, {"wire.put_us", "us", "lower"},
		{"serve.get_us", "us", "lower"}, {"serve.put_us", "us", "lower"},
		{"serve.mput4_us", "us", "lower"}, {"serve.mget4_us", "us", "lower"}, {"serve.range256_us", "us", "lower"},
		{"serve.self_get_us", "us", "lower"},
		{"serve.queue_wait_p50_us", "us", "lower"}, {"serve.queue_wait_p99_us", "us", "lower"}, {"serve.svc_p50_us", "us", "lower"},
		{"serve.fenced_requeues_per_kop", "1/kop", "lower"}, {"serve.requeued_per_kop", "1/kop", "lower"},
		{"serve.cross_aborts_per_kop", "1/kop", "lower"}, {"serve.rejected_share", "share", "lower"},
		{"serve.allocs_per_op", "1/op", "lower"}, {"serve.bytes_per_op", "B/op", "lower"},
		{"serve.preload_keys_per_s", "1/s", "higher"},
		{"store.get_ns", "ns", "lower"}, {"store.put_ns", "ns", "lower"}, {"store.range256_ns", "ns", "lower"},
		{"shard.owner_hash_ns", "ns", "lower"}, {"shard.owner_range_ns", "ns", "lower"}, {"shard.owners_in_range_ns", "ns", "lower"},
		{"metrics.reservoir_observe_ns.1g", "ns", "lower"}, {"metrics.reservoir_observe_ns.2g", "ns", "lower"},
		{"polytm.gate_ns", "ns", "lower"}, {"polytm.reconfigure_us", "us", "lower"}, {"polytm.allocs_per_txn", "1/op", "lower"},
	}
	for _, kind := range []string{"counter_ns", "writeheavy_ns"} {
		for _, alg := range bench.AlgorithmNames {
			m = append(m, layerMetric{algMetric(alg, kind), "ns", "lower"})
		}
	}
	for _, app := range tmAppList {
		for _, be := range tmBackends {
			m = append(m,
				layerMetric{"tm." + app.name + "." + be.name + ".ops_per_s", "1/s", "higher"},
				layerMetric{"tm." + app.name + "." + be.name + ".abort_share", "share", "lower"})
		}
	}
	return append(m,
		layerMetric{"cf.select_model_s", "s", "lower"}, layerMetric{"rectm.train_s", "s", "lower"},
		layerMetric{"cf.predict_dist_us", "us", "lower"}, layerMetric{"smbo.pick_next_us", "us", "lower"},
		layerMetric{"rectm.optimize_us", "us", "lower"},
		layerMetric{"rectm.explorations_per_opt", "count", "lower"}, layerMetric{"rectm.mdfo_pct", "%", "lower"},
		layerMetric{"rectm.dfo_p90_pct", "%", "lower"}, layerMetric{"rectm.far_share", "share", "lower"},
		layerMetric{"monitor.observe_ns", "ns", "lower"},
		layerMetric{"load.lat_p99_ms", "ms", "lower"}, layerMetric{"load.lat_p999_ms", "ms", "lower"},
		layerMetric{"load.interval_spread", "share", "lower"}, layerMetric{"load.gen_overhead_us", "us", "lower"},
		layerMetric{"load.trace_overhead_pct", "%", "lower"}, layerMetric{"load.gomaxprocs", "count", "higher"},
	)
}

// algMetric names a micro-suite row: the STMs live under stm., the HTM
// emulation under htm.
func algMetric(alg, kind string) string {
	if alg == "htm" {
		return "htm." + kind
	}
	return "stm." + alg + "." + kind
}

// runTraced runs the workload with tracing and then the layer probes, and
// writes the spans to path.
func runTraced(w workloadDef, sz sizes, seed uint64, t timing, procs int, path string) (*report, error) {
	tr := newTracer()
	rep := &report{workload: w.name, seed: seed, traced: true, timing: t, procs: procs}
	m := &rep.metrics
	tally := func(attempted, failed uint64) { rep.attempted, rep.failed = rep.attempted+attempted, rep.failed+failed }

	// Part 1: the workload in eight quarter-length intervals, untraced and
	// traced in turn (tm-apps: one round less, each visit both ways). It gets
	// about a third of the run; the probes share the rest.
	short := t
	short.warmup = t.warmup / 2
	short.interval, short.intervals = t.interval/4, 8
	short.cellRounds, short.cellWarmup, short.cellInterval = max(t.cellRounds-1, 1), t.cellWarmup/2, t.cellInterval/2
	b, err := w.setup(sz, seed, procs)
	if err != nil {
		return nil, err
	}
	res := b.run(short, tr)
	va, vf, notes := b.verify()
	b.close()
	tally(res.attempted+va, res.failed+vf)
	rep.far, rep.notes = res.far, append(res.notes, notes...)
	m.add("load.lat_p99_ms", res.p99Ms, "ms")
	m.add("load.lat_p999_ms", res.p999Ms, "ms")
	m.add("load.interval_spread", res.spread, "share")
	m.add("load.gen_overhead_us", res.genUs, "us")
	m.add("load.trace_overhead_pct", 100*(1-res.tracedOpsPerS/res.untracedOpsPerS), "%")
	m.add("load.gomaxprocs", float64(procs), "count")

	// Part 2: the layer probes.
	pa, pf, err := probeKV(sz, seed, procs, tr, m)
	if err != nil {
		return nil, err
	}
	tally(pa, pf)
	probeShard(sz, m)
	probeReservoir(sz, m)
	if err := probePolyTM(sz, procs, m); err != nil {
		return nil, err
	}
	probeSTM(sz, procs, m)
	probeMonitor(sz, m)

	cells := res.cells
	if cells == nil { // not tm-apps: visit the cells briefly
		envs, err := setupApps(seed, procs)
		if err != nil {
			return nil, err
		}
		cells = runCells(envs, seed, timing{cellRounds: 2, cellWarmup: sz.probe / 6, cellInterval: sz.probe / 2}, nil)
		closeApps(envs)
		brief := summarizeCells(cells)
		tally(brief.attempted, brief.failed)
		rep.notes = append(rep.notes, brief.notes...)
	}
	for _, c := range cells {
		m.add("tm."+c.app+"."+c.backend+".ops_per_s", c.opsPerS, "1/s")
		m.add("tm."+c.app+"."+c.backend+".abort_share", c.abortShare, "share")
	}

	pa, pf, err = probeTuner(sz, seed, res.tune, tr, m)
	if err != nil {
		return nil, err
	}
	tally(pa, pf)

	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return rep, nil
}

// nsPerOp times fn in five slices of d/5 and returns the median slice's
// nanoseconds per call; fn is called in batches so the clock is read rarely.
func nsPerOp(d time.Duration, fn func(i int)) float64 {
	const batch = 256
	var slices []float64
	i := 0
	for s := 0; s < 5; s++ {
		calls := 0
		start := time.Now()
		var el time.Duration
		for el < d/5 {
			for j := 0; j < batch; j++ {
				fn(i)
				i++
			}
			calls += batch
			el = time.Since(start)
		}
		slices = append(slices, float64(el.Nanoseconds())/float64(calls))
	}
	return median(slices)
}

// mix64 scrambles a counter into a key (splitmix64's finalizer).
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

var sink atomic.Uint64 // keeps probe results alive

// probeShard times the partitioners' routing functions.
func probeShard(sz sizes, m *metricSet) {
	ring := shard.New(kvShards)
	spans := shard.NewRange(kvShards, uint64(sz.keys))
	keys := uint64(sz.keys)
	var acc int
	m.add("shard.owner_hash_ns", nsPerOp(sz.probe/3, func(i int) { acc += ring.Owner(mix64(uint64(i)) % keys) }), "ns")
	m.add("shard.owner_range_ns", nsPerOp(sz.probe/3, func(i int) { acc += spans.Owner(mix64(uint64(i)) % keys) }), "ns")
	m.add("shard.owners_in_range_ns", nsPerOp(sz.probe/3, func(i int) {
		lo := mix64(uint64(i)) % (keys - rangeSpan)
		acc += len(ring.OwnersInRange(lo, lo+rangeSpan-1))
	}), "ns")
	sink.Add(uint64(acc))
}

// probeReservoir times the latency reservoir serve observes three times per
// operation, alone and with a second goroutine on the same reservoir.
func probeReservoir(sz sizes, m *metricSet) {
	for _, g := range []int{1, 2} {
		r := metrics.NewReservoir(8192)
		res := make([]float64, g)
		var wg sync.WaitGroup
		for k := 0; k < g; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				res[k] = nsPerOp(sz.probe/2, func(i int) { r.Observe(float64(i & 1023)) })
			}(k)
		}
		wg.Wait()
		m.add(fmt.Sprintf("metrics.reservoir_observe_ns.%dg", g), median(res), "ns")
	}
}

// probeMonitor times one KPI sample through the change detector.
func probeMonitor(sz sizes, m *metricSet) {
	c := monitor.NewCUSUM()
	alarms := 0
	m.add("monitor.observe_ns", nsPerOp(sz.probe/3, func(i int) {
		if c.Observe(1000 + float64(mix64(uint64(i))%64)) {
			alarms++
		}
	}), "ns")
	sink.Add(uint64(alarms))
}

// probePolyTM measures what the PolyTM layer adds to a bare algorithm (paper
// Table 4), what a live algorithm switch costs, and allocations per
// transaction.
func probePolyTM(sz sizes, procs int, m *metricSet) error {
	// Gate: the same 1-word counter transaction through Worker.Atomic and
	// through tm.Run on the same algorithm.
	sys, err := proteustm.Open(proteustm.WithWorkers(procs), proteustm.WithHeapWords(1<<12), proteustm.WithSeed(serveSeed))
	if err != nil {
		return err
	}
	defer sys.Close()
	tl2 := proteustm.Config{Alg: proteustm.TL2, Threads: procs}
	norec := proteustm.Config{Alg: proteustm.NOrec, Threads: procs}
	if err := sys.SetConfig(tl2); err != nil {
		return err
	}
	w, err := sys.Worker(0)
	if err != nil {
		return err
	}
	a := sys.MustAlloc(1)
	body := func(tx proteustm.Txn) { tx.Store(a, tx.Load(a)+1) }
	gated := nsPerOp(sz.probe, func(int) { w.Atomic(body) })

	heap := tm.NewHeap(1<<12, 1)
	ba := heap.MustAlloc(1)
	ctx := tm.NewCtx(0, heap)
	bareBody := func(tx tm.Txn) { tx.Store(ba, tx.Load(ba)+1) }
	bare := nsPerOp(sz.probe, func(int) { tm.Run(stm.TL2{}, ctx, bareBody) })
	m.add("polytm.gate_ns", gated-bare, "ns")

	var ms0, ms1 runtime.MemStats
	const txns = 20000
	runtime.ReadMemStats(&ms0)
	for i := 0; i < txns; i++ {
		w.Atomic(body)
	}
	runtime.ReadMemStats(&ms1)
	m.add("polytm.allocs_per_txn", float64(ms1.Mallocs-ms0.Mallocs)/txns, "1/op")

	// Reconfiguration: switch the algorithm under busy workers.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		bw, err := sys.Worker(id)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				bw.Atomic(body)
			}
		}()
	}
	var switches []float64
	deadline := time.Now().Add(sz.probe)
	for i := 0; time.Now().Before(deadline) || i < 4; i++ {
		// Let the workers get back into transactions: a switch issued right
		// after the last one finds them still parked and costs nothing.
		time.Sleep(200 * time.Microsecond)
		cfg := norec
		if i%2 == 1 {
			cfg = tl2
		}
		t0 := time.Now()
		err = sys.SetConfig(cfg)
		switches = append(switches, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return err
	}
	m.add("polytm.reconfigure_us", median(switches), "us")
	return nil
}

// benchtime guards the one setting of testing's benchmark length: a process
// runs every probe at one size.
var benchtime sync.Once

// probeSTM runs the micro-suite's counter and write-heavy bodies (the ones
// BENCH_<n>.json records at one thread) on every backend at procs threads.
func probeSTM(sz sizes, procs int, m *metricSet) {
	benchtime.Do(func() {
		testing.Init()
		flag.Set("test.benchtime", (sz.probe / 2).String()) //nolint:errcheck // a valid duration
	})
	for _, alg := range bench.AlgorithmNames {
		r := testing.Benchmark(func(b *testing.B) { bench.CounterTx(b, bench.NewAlgorithm(alg), procs) })
		m.add(algMetric(alg, "counter_ns"), float64(r.T.Nanoseconds())/float64(max(r.N, 1)), "ns")
	}
	for _, alg := range bench.AlgorithmNames {
		r := testing.Benchmark(func(b *testing.B) { bench.WriteHeavyTx(b, bench.NewAlgorithm(alg), procs) })
		m.add(algMetric(alg, "writeheavy_ns"), float64(r.T.Nanoseconds())/float64(max(r.N, 1)), "ns")
	}
}

// probeTuner times the tuner's parts and reports the counts of one full pass
// over the held-out workloads. c is tune-shift's caller when the traced run
// was tune-shift's: its recommender and its first pass are used. Otherwise a
// recommender is trained and a pass made here.
func probeTuner(sz sizes, seed uint64, c *tuneCaller, tr *tracer, m *metricSet) (attempted, failed uint64, err error) {
	if c == nil {
		env, err := setupTune(sz, seed)
		if err != nil {
			return 0, 0, err
		}
		c = &tuneCaller{env: env}
		tb := tr.buf()
		for range env.heldOut {
			c.step(tb)
		}
		attempted, failed = c.steps, c.invalid
	}
	env, pass := c.env, &c.pass
	m.add("cf.select_model_s", env.selectT.Seconds(), "s")
	m.add("rectm.train_s", env.trainT.Seconds(), "s")

	// One model query as Optimize makes it after its first sample: a row with
	// only the reference configuration known.
	active := make([]float64, env.rec.Cols)
	for i := range active {
		active[i] = cf.Missing
	}
	ref := env.rec.RefCol()
	active[ref] = env.ratings.Data[0][ref]
	var mean, variance []float64
	m.add("cf.predict_dist_us", nsPerOp(sz.probe, func(int) { mean, variance = env.rec.Ensemble.PredictDist(active) })/1e3, "us")
	rng := seed | 1
	picked := 0
	m.add("smbo.pick_next_us", nsPerOp(sz.probe/3, func(int) {
		next, _ := smbo.PickNext(active, mean, variance, active[ref], smbo.EI, &rng)
		picked += next
	})/1e3, "us")
	sink.Add(uint64(picked))

	m.add("rectm.optimize_us", median(pass.us), "us")
	m.add("rectm.explorations_per_opt", float64(pass.explored)/float64(max(pass.steps, 1)), "count")
	m.add("rectm.mdfo_pct", 100*pass.mdfo(), "%")
	m.add("rectm.dfo_p90_pct", 100*metrics.Percentile(pass.dfos, 90), "%")
	m.add("rectm.far_share", pass.farShare(), "share")
	return attempted, failed, nil
}

// ---- the kv probe ----

// passStats collects one pass's per-kind latencies, in nanoseconds.
type passStats [numKinds][]float64

// mixResult is what replaying one mix through the three passes yields: the
// passes' latencies, and what the handler pass did to the server's counters
// and the heap.
type mixResult struct {
	wire, handler, store passStats
	before, after        serve.Status
	mallocs, bytes, ops  uint64
}

// directStore is a benchmark-owned single-worker system with a serve.Store
// on it, preloaded like one shard: the data-plane floor under a serve call.
type directStore struct {
	sys   *proteustm.System
	w     *proteustm.Worker
	store *serve.Store
}

func newDirectStore(sz sizes, shardIdx int) (*directStore, error) {
	sys, err := proteustm.Open(proteustm.WithWorkers(1), proteustm.WithSeed(serveSeed))
	if err != nil {
		return nil, err
	}
	store, err := serve.NewStore(sys.Heap())
	if err != nil {
		sys.Close()
		return nil, err
	}
	w, err := sys.Worker(0)
	if err != nil {
		sys.Close()
		return nil, err
	}
	ring := shard.New(kvShards)
	var chunk []uint64
	flush := func() {
		w.Atomic(func(tx proteustm.Txn) {
			for _, k := range chunk {
				store.Put(tx, 0, k, k)
			}
		})
		chunk = chunk[:0]
	}
	for k := 0; k < sz.keys; k++ {
		if ring.Owner(uint64(k)) == shardIdx%kvShards {
			if chunk = append(chunk, uint64(k)); len(chunk) == 64 {
				flush()
			}
		}
	}
	flush()
	return &directStore{sys: sys, w: w, store: store}, nil
}

// do runs the store call behind op as one transaction; kinds without a
// single store call behind them are skipped.
func (d *directStore) do(op *kvOp) bool {
	k := uint64(op.keys[0])
	switch op.kind {
	case kGet:
		d.w.Atomic(func(tx proteustm.Txn) { d.store.Get(tx, k) })
	case kPut:
		d.w.Atomic(func(tx proteustm.Txn) { d.store.Put(tx, 0, k, op.val) })
	case kRange:
		d.w.Atomic(func(tx proteustm.Txn) { d.store.Range(tx, k, k+rangeSpan-1) })
	default:
		return false
	}
	return true
}

// probeKV issues operations three ways on one server — over loopback HTTP,
// through ServeHTTP in process, and as a direct Store transaction on a
// benchmark-owned system — so a layer's own time is its span minus the span
// one level down: wire = HTTP − handler, serve's self time = handler − store.
// The three passes replay the same operations with the same number of
// callers as the workloads, one pass after the other, so each pass runs
// under the concurrency of the workload it explains (the HTTP pass is
// kv-point's situation, the handler pass kv-multi's). Spans of one operation
// share its request id, and each pass's span names the pass above as parent.
func probeKV(sz sizes, seed uint64, procs int, tr *tracer, m *metricSet) (attempted, failed uint64, err error) {
	t0 := time.Now()
	empty, err := newServer(0)
	if err != nil {
		return 0, 0, err
	}
	emptyT := time.Since(t0)
	empty.Close() //nolint:errcheck // the server is being discarded

	env, err := setupKV(sz, seed, pointMix, true, procs)
	if err != nil {
		return 0, 0, err
	}
	defer env.close()
	if preloadT := env.serverT - emptyT; preloadT > 0 {
		m.add("serve.preload_keys_per_s", float64(sz.keys)/preloadT.Seconds(), "1/s")
	} else {
		m.add("serve.preload_keys_per_s", float64(sz.keys)/env.serverT.Seconds(), "1/s")
	}

	type probeClient struct {
		c      *kvClient
		proc   transport
		direct *directStore
		tb     *spanBuf
	}
	pcs := make([]*probeClient, procs)
	for i, c := range env.clients {
		pc := &probeClient{c: c, tb: tr.buf()}
		if pc.proc, err = newProcTransport(env.srv); err != nil {
			return 0, 0, err
		}
		if pc.direct, err = newDirectStore(sz, i); err != nil {
			return 0, 0, err
		}
		defer pc.direct.sys.Close()
		pcs[i] = pc
	}

	// Warm the wire path the way the workloads do before they measure:
	// connections open, heap grown, first garbage collected.
	drive(env.callers(), 3*sz.probe, 1, nil)
	runtime.GC()

	var okOps, badOps atomic.Uint64
	var spanNames [3][numKinds]string
	for p, layer := range []string{"wire.", "serve.", "store."} {
		for k, kind := range kindName {
			spanNames[p][k] = layer + kind
		}
	}
	// runMix replays one mix through the three passes.
	runMix := func(mix kvMix, salt uint64) (r mixResult) {
		counts := make([]int, procs)
		parents := make([][]uint32, procs)
		stats := make([][3]passStats, procs)
		for i, pc := range pcs {
			pc.c.stream, pc.c.pos = genStream(sz, seed+salt, mix, i, procs), 0
		}
		pass := func(fn func(i int, pc *probeClient)) {
			var wg sync.WaitGroup
			for i, pc := range pcs {
				wg.Add(1)
				go func() { defer wg.Done(); fn(i, pc) }()
			}
			wg.Wait()
		}
		// Pass 1: loopback HTTP, for a fixed time.
		pass(func(i int, pc *probeClient) {
			deadline := time.Now().Add(sz.probe * 3)
			for n := 0; n < len(pc.c.stream); n++ {
				op := &pc.c.stream[n]
				t0 := time.Now()
				ok := pc.c.issue(pc.c.tr, op)
				t1 := time.Now()
				count(&okOps, &badOps, ok)
				stats[i][0][op.kind] = append(stats[i][0][op.kind], float64(t1.Sub(t0)))
				parents[i] = append(parents[i], pc.tb.record(spanNames[0][op.kind], 0, uint64(n)<<8|uint64(i), t0, t1))
				counts[i] = n + 1
				if t1.After(deadline) {
					break
				}
			}
		})
		// Pass 2: the same operations through the handler, in process.
		var ms0, ms1 runtime.MemStats
		r.before = env.srv.StatusSnapshot()
		runtime.ReadMemStats(&ms0)
		pass(func(i int, pc *probeClient) {
			for n := 0; n < counts[i]; n++ {
				op := &pc.c.stream[n]
				t0 := time.Now()
				ok := pc.c.issue(pc.proc, op)
				t1 := time.Now()
				count(&okOps, &badOps, ok)
				stats[i][1][op.kind] = append(stats[i][1][op.kind], float64(t1.Sub(t0)))
				parents[i][n] = pc.tb.record(spanNames[1][op.kind], parents[i][n], uint64(n)<<8|uint64(i), t0, t1)
			}
		})
		runtime.ReadMemStats(&ms1)
		r.after = env.srv.StatusSnapshot()
		r.mallocs, r.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		// Pass 3: the store call alone.
		pass(func(i int, pc *probeClient) {
			for n := 0; n < counts[i]; n++ {
				op := &pc.c.stream[n]
				t0 := time.Now()
				if !pc.direct.do(op) {
					continue
				}
				t1 := time.Now()
				stats[i][2][op.kind] = append(stats[i][2][op.kind], float64(t1.Sub(t0)))
				pc.tb.record(spanNames[2][op.kind], parents[i][n], uint64(n)<<8|uint64(i), t0, t1)
			}
		})
		for i := range pcs {
			r.ops += uint64(counts[i])
			for k := 0; k < numKinds; k++ {
				r.wire[k] = append(r.wire[k], stats[i][0][k]...)
				r.handler[k] = append(r.handler[k], stats[i][1][k]...)
				r.store[k] = append(r.store[k], stats[i][2][k]...)
			}
		}
		return r
	}

	pt := runMix(pointMix, 101)
	serveGet := median(pt.handler[kGet]) / 1e3
	m.add("wire.get_us", median(pt.wire[kGet])/1e3-serveGet, "us")
	m.add("wire.put_us", (median(pt.wire[kPut])-median(pt.handler[kPut]))/1e3, "us")
	m.add("serve.get_us", serveGet, "us")
	m.add("serve.put_us", median(pt.handler[kPut])/1e3, "us")
	m.add("serve.self_get_us", serveGet-median(pt.store[kGet])/1e3, "us")
	m.add("store.get_ns", median(pt.store[kGet]), "ns")
	m.add("store.put_ns", median(pt.store[kPut]), "ns")

	mu := runMix(multiMix, 202)
	before, after := mu.before, mu.after
	m.add("serve.mput4_us", median(mu.handler[kMput])/1e3, "us")
	m.add("serve.mget4_us", median(mu.handler[kMget])/1e3, "us")
	m.add("serve.range256_us", median(mu.handler[kRange])/1e3, "us")
	m.add("store.range256_ns", median(mu.store[kRange]), "ns")
	kops := math.Max(float64(after.Ops.Total-before.Ops.Total), 1) / 1e3
	m.add("serve.queue_wait_p50_us", after.QueueWait.P50*1e3, "us")
	m.add("serve.queue_wait_p99_us", after.QueueWait.P99*1e3, "us")
	m.add("serve.svc_p50_us", after.Service.P50*1e3, "us")
	m.add("serve.fenced_requeues_per_kop", float64(after.Ops.Fenced-before.Ops.Fenced)/kops, "1/kop")
	m.add("serve.requeued_per_kop", float64(after.Ops.Requeued-before.Ops.Requeued)/kops, "1/kop")
	m.add("serve.cross_aborts_per_kop", float64(after.Ops.CrossAborts-before.Ops.CrossAborts)/kops, "1/kop")
	rejected := float64(after.Ops.Rejected - before.Ops.Rejected)
	m.add("serve.rejected_share", rejected/(rejected+kops*1e3), "share")
	m.add("serve.allocs_per_op", float64(mu.mallocs)/float64(max(mu.ops, 1)), "1/op")
	m.add("serve.bytes_per_op", float64(mu.bytes)/float64(max(mu.ops, 1)), "B/op")

	va, vf := env.verify()
	return okOps.Load() + badOps.Load() + va, badOps.Load() + vf, nil
}

func count(ok, bad *atomic.Uint64, good bool) {
	if good {
		ok.Add(1)
	} else {
		bad.Add(1)
	}
}
