// Command e2e is the repository's benchmark: one process runs one workload
// from a seed, checks what the system answered, and prints every metric by
// name with its unit; the last line of standard output is one JSON object
// for the acceptance driver. It measures each layer from outside, by timing
// calls into the packages' public functions. See ../README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// processStart anchors setup_s: package initialisation runs within a
// millisecond of the process starting.
var processStart = time.Now()

// sizes are the input dimensions of a run; the smoke test shrinks them.
type sizes struct {
	keys          int           // preloaded keys of a kv server (128 Ki 3-word nodes per shard pair: larger than L2)
	streamLen     int           // operations per client before its stream repeats
	tuneWorkloads int           // rows of the performance-model truth matrix
	tuneFolds     int           // cross-validation folds of model selection
	probe         time.Duration // base length of one layer probe of the traced run
}

func fullSizes() sizes {
	return sizes{keys: 131072, streamLen: 65536, tuneWorkloads: 300, tuneFolds: 5, probe: 300 * time.Millisecond}
}

// timing is how a run spends its measured time.
type timing struct {
	warmup, interval time.Duration
	intervals        int
	// tm-apps visits each of its 12 cells cellRounds times; a visit is a
	// warm-up and one interval.
	cellWarmup, cellInterval time.Duration
	cellRounds               int
}

const (
	// runSeconds is what BENCHMARK.json asks the driver to pass as --seconds:
	// a 3 s warm-up and six 4 s intervals. The driver's cap on the total time
	// of its 92 runs and two builds leaves about 35 s a run, set-up, output
	// check and the build's up-to-date test included; a run takes 30-32 s with
	// six intervals, which leaves nine minutes in all, and seven would leave
	// two.
	runSeconds   = 27
	warmupFull   = 3 * time.Second
	intervalFull = 4 * time.Second
	cellInterval = 500 * time.Millisecond
	cellRounds   = 3
	numCells     = 12
)

// timingFor spends seconds as a 3 s warm-up plus as many 4 s intervals as fit
// (27 s gives 6, 31 s gives 7): an interval is never shortened, because the
// interval medians are what makes the numbers repeat. Below 7 s — development
// only — it falls back to two proportional intervals. tm-apps spends the same
// time on three rounds over its cells: a visit is one 0.5 s interval, and the
// rest of its share warms the cell up after the switch of algorithm.
func timingFor(seconds float64) timing {
	total := time.Duration(seconds * float64(time.Second))
	t := timing{warmup: warmupFull, interval: intervalFull}
	if t.intervals = int((total - warmupFull) / intervalFull); t.intervals < 1 {
		t.warmup = total / 5
		t.intervals = 2
		t.interval = (total - t.warmup) / 2
	}
	visit := total / (numCells * cellRounds)
	t.cellRounds, t.cellInterval = cellRounds, cellInterval
	if visit < cellInterval*5/4 {
		t.cellInterval = visit * 4 / 5
	}
	t.cellWarmup = visit - t.cellInterval
	return t
}

// endToEndMetrics are the four numbers every workload reports; bound is the
// share of the parent's median by which one may worsen before a change is
// rejected. The acceptance driver refuses a benchmark whose ten-run spread
// (IQR / median) exceeds a metric's bound and caps bounds at 0.25; on a
// shared 2-vCPU box the timing metrics' spread reaches 13-22 % in rough
// stretches (../README.md), so they take the cap and not issue 13's 0.10.
// peak_rss_mb repeats within 1-3 % on three workloads, but tune-shift's
// 14 MiB process reads 17 MiB in the same stretches (16 % spread), and a
// bound is one number for all workloads.
var endToEndMetrics = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// workloadRun is one workload set up and ready to be measured.
type workloadRun interface {
	// run measures the workload; a non-nil tracer makes it alternate untraced
	// and traced intervals and report both throughputs.
	run(t timing, tr *tracer) runResult
	// verify is the end-of-run output check: checks attempted and failed, and
	// what to print about them.
	verify() (attempted, failed uint64, notes []string)
	close()
}

// runResult is what one measured run yields.
type runResult struct {
	opsPerS, p50Ms                 float64 // end to end: medians over intervals (tm-apps: geometric means over cells)
	p99Ms, p999Ms, spread, genUs   float64 // load.*
	tracedOpsPerS, untracedOpsPerS float64 // traced runs only
	attempted, failed              uint64
	far                            uint64 // tune-shift: valid answers too far from the optimum to count as done
	notes                          []string
	// What a traced run reports per layer from the workload itself, so that
	// no probe measures the same thing again.
	cells []cellResult // tm-apps
	tune  *tuneCaller  // tune-shift
}

type workloadDef struct {
	name, why string
	setup     func(sz sizes, seed uint64, procs int) (workloadRun, error)
}

var workloadDefs = []workloadDef{
	{"kv-point", "single-key get/put/cas/del over loopback HTTP: what a proteusd client sees; the wire does most of the work",
		func(sz sizes, seed uint64, procs int) (workloadRun, error) {
			return newKVBench(sz, seed, pointMix, true, procs)
		}},
	{"kv-multi", "write-heavy multi-key mix called in process: no wire; admission, queues, cross-shard fences and routing do the work",
		func(sz sizes, seed uint64, procs int) (workloadRun, error) {
			return newKVBench(sz, seed, multiMix, false, procs)
		}},
	{"tm-apps", "paper Table-1 applications through the public API on pinned NOrec, TL2 and HTM: polytm/tm/stm/htm do all the work",
		func(_ sizes, seed uint64, procs int) (workloadRun, error) { return newAppsBench(seed, procs) }},
	{"tune-shift", "the tuner's decision path replayed on ground truth (paper 6.3): rectm/cf/smbo do all the work, TM and serve none; fixed corpus, the seed only orders it",
		func(sz sizes, seed uint64, _ int) (workloadRun, error) { return newTuneBench(sz, seed) }},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- the three workloadRun implementations ----

type kvBench struct{ env *kvEnv }

func newKVBench(sz sizes, seed uint64, mix kvMix, wire bool, procs int) (workloadRun, error) {
	env, err := setupKV(sz, seed, mix, wire, procs)
	if err != nil {
		return nil, err
	}
	return kvBench{env}, nil
}

func (b kvBench) run(t timing, tr *tracer) runResult { return runIntervals(b.env.callers(), t, tr) }
func (b kvBench) verify() (uint64, uint64, []string) {
	attempted, failed := b.env.verify()
	return attempted, failed, nil
}
func (b kvBench) close() { b.env.close() }

type tuneBench struct{ c *tuneCaller }

func newTuneBench(sz sizes, seed uint64) (workloadRun, error) {
	env, err := setupTune(sz, seed)
	if err != nil {
		return nil, err
	}
	return &tuneBench{&tuneCaller{env: env}}, nil
}

func (b *tuneBench) run(t timing, tr *tracer) runResult {
	r := runIntervals([]caller{b.c}, t, tr)
	// Far results are valid answers, so they are not failed operations; they
	// only earn no throughput (ops_per_s counts optimizations that landed
	// within 10 % of the optimum), and verify bounds their share.
	r.attempted, r.failed, r.far = b.c.steps, b.c.invalid, b.c.far
	r.tune = b.c
	return r
}

// verify is the accuracy gate on the tuner's decisions.
func (b *tuneBench) verify() (uint64, uint64, []string) {
	attempted, failed, note := b.c.checkAccuracy()
	return attempted, failed, []string{note}
}
func (b *tuneBench) close() {}

type appsBench struct {
	envs []*appEnv
	seed uint64
}

func newAppsBench(seed uint64, procs int) (workloadRun, error) {
	envs, err := setupApps(seed, procs)
	if err != nil {
		return nil, err
	}
	return &appsBench{envs: envs, seed: seed}, nil
}

func (b *appsBench) run(t timing, tr *tracer) runResult {
	return summarizeCells(runCells(b.envs, b.seed, t, tr))
}

// summarizeCells folds the cells into the workload's end-to-end numbers:
// geometric means, so no application dominates and no pooled bimodal median
// can flip.
func summarizeCells(cells []cellResult) runResult {
	r := runResult{cells: cells}
	var ops, p50, p99, traced, rel []float64
	for _, c := range cells {
		r.attempted += c.ops
		if c.err != nil {
			r.failed++
			r.notes = append(r.notes, "tm-apps: INVARIANT VIOLATED: "+c.err.Error())
			continue
		}
		ops, p50, p99 = append(ops, c.opsPerS), append(p50, c.p50Ms), append(p99, c.p99Ms)
		traced, rel = append(traced, c.tracedOpsPerS), append(rel, c.relOpsPerS...)
		r.notes = append(r.notes, fmt.Sprintf("tm-apps: %-8s %-5s %12.0f ops/s  p50 %.5f ms  aborts %.4f",
			c.app, c.backend, c.opsPerS, c.p50Ms, c.abortShare))
	}
	r.opsPerS, r.p50Ms, r.p99Ms = geomean(ops), geomean(p50), geomean(p99)
	r.p999Ms = r.p99Ms // a 0.5 s interval times too few operations for a p99.9
	r.untracedOpsPerS, r.tracedOpsPerS = r.opsPerS, geomean(traced)
	// The run's own noise reading: the visits' throughputs, each over its
	// cell's median, pooled.
	r.spread, r.genUs = iqrShare(rel), 2*clockReadNs()/sampleEvery/1e3
	return r
}

// verify has nothing left to check: every visit checked its invariants.
func (b *appsBench) verify() (uint64, uint64, []string) { return 0, 0, nil }
func (b *appsBench) close()                             { closeApps(b.envs) }

// runIntervals is the shape the closed-loop workloads share: warm up, collect
// garbage once so no run starts its measurement with the set-up's heap debt,
// then the measured intervals. In a traced run untraced and traced intervals
// alternate in one process, so their difference is the tracing overhead and
// not the difference between two processes.
func runIntervals(callers []caller, t timing, tr *tracer) runResult {
	drive(callers, t.warmup, 1, nil)
	runtime.GC()
	var lr loadResult
	var r runResult
	if tr == nil {
		lr = summarize(drive(callers, t.interval, t.intervals, nil), t.interval)
	} else {
		var traced loadResult
		for i := 0; i < max(t.intervals/2, 1); i++ { // intervals come in pairs
			lr = lr.append(summarize(drive(callers, t.interval, 1, nil), t.interval))
			traced = traced.append(summarize(drive(callers, t.interval, 1, tr), t.interval))
		}
		r.untracedOpsPerS, r.tracedOpsPerS = median(lr.opsPerS), median(traced.opsPerS)
		lr.ok, lr.failed = lr.ok+traced.ok, lr.failed+traced.failed
	}
	r.opsPerS, r.p50Ms = median(lr.opsPerS), median(lr.p50Ms)
	r.p99Ms, r.p999Ms = median(lr.p99Ms), median(lr.p999Ms)
	r.spread, r.genUs = iqrShare(lr.opsPerS), median(lr.genUs)
	r.attempted, r.failed = lr.ok+lr.failed, lr.failed
	r.notes = append(r.notes, fmt.Sprintf("interval ops/s: %.0f", lr.opsPerS), fmt.Sprintf("interval p50 ms: %.5f", lr.p50Ms))
	return r
}

// ---- output ----

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// metricSet keeps metrics in report order and rejects a name used twice.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (m *metricSet) add(name string, value float64, unit string) {
	if m.seen == nil {
		m.seen = map[string]bool{}
	}
	if m.seen[name] {
		panic("e2e: metric " + name + " reported twice")
	}
	m.seen[name] = true
	m.list = append(m.list, metric{name, value, unit})
}

// report is the outcome of one run of one workload.
type report struct {
	workload          string
	seed              uint64
	traced            bool
	timing            timing
	procs             int
	metrics           metricSet
	attempted, failed uint64
	far               uint64 // attempted, answered validly, but not well enough to count as succeeded
	notes             []string
}

// print writes the human-readable report and, last, the driver's JSON line.
func (r *report) print() error {
	fmt.Printf("workload=%s seed=%d trace=%v %s nproc=%d GOMAXPROCS=%d warmup=%s intervals=%dx%s cells=%dx%dx(%s+%s)\n",
		r.workload, r.seed, r.traced, runtime.Version(), runtime.NumCPU(), r.procs,
		r.timing.warmup, r.timing.intervals, r.timing.interval,
		numCells, r.timing.cellRounds, r.timing.cellWarmup.Round(time.Millisecond), r.timing.cellInterval)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jm{}}
	for _, m := range r.metrics.list {
		fmt.Printf("%-36s %18.6f %s\n", m.name, m.value, m.unit)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	fmt.Printf("ops attempted=%d succeeded=%d failed=%d far=%d\n", r.attempted, r.attempted-r.failed-r.far, r.failed, r.far)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runUntraced measures the end-to-end metrics of one workload. start is
// when the process (in a test: the run) began; setup_s counts from there to
// the moment the workload is ready for its first timed operation.
func runUntraced(w workloadDef, sz sizes, seed uint64, t timing, procs int, start time.Time) (*report, error) {
	b, err := w.setup(sz, seed, procs)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	res := b.run(t, nil)
	va, vf, notes := b.verify()
	rss, err := peakRSSMiB()
	b.close()
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w.name, seed: seed, timing: t, procs: procs,
		attempted: res.attempted + va, failed: res.failed + vf, far: res.far, notes: append(res.notes, notes...)}
	rep.metrics.add("setup_s", setup.Seconds(), "s")
	rep.metrics.add("ops_per_s", res.opsPerS, "1/s")
	rep.metrics.add("lat_p50_ms", res.p50Ms, "ms")
	rep.metrics.add("peak_rss_mb", rss, "MiB")
	return rep, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: kv-point, kv-multi, tm-apps or tune-shift")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", runSeconds, "warm-up plus measured time: 3 s warm-up and 4 s intervals (27 = 6 intervals, 31 = 7)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end ones")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/e2e-trace-<workload>.json)")
	aa := flag.Int("aa", 0, "self-check: run every workload N times, twice, and compare the two sets' medians with the bounds in BENCHMARK.json")
	benchJSON := flag.String("benchmark-json", "BENCHMARK.json", "bounds file --aa reads")
	flag.Parse()

	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	if *aa > 0 {
		os.Exit(runAA(*aa, *workload, *seed, *seconds, *benchJSON))
	}
	w, ok := lookupWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	var rep *report
	var err error
	if *trace != 0 {
		path := *traceOut
		if path == "" {
			path = ".bench_build/e2e-trace-" + w.name + ".json"
		}
		rep, err = runTraced(w, fullSizes(), *seed, timingFor(*seconds), procs, path)
	} else {
		rep, err = runUntraced(w, fullSizes(), *seed, timingFor(*seconds), procs, processStart)
	}
	if err == nil {
		err = rep.print()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}
