package scenario

import (
	"fmt"
	"time"

	"repro/internal/cf"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/polytm"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// Mode selects how a scenario run executes and measures.
type Mode string

const (
	// Deterministic executes operations serially against a virtual clock
	// that charges OpCost per transaction attempt. Same seed, same
	// binary → byte-identical result records; thread counts shape the
	// operation schedule (which slots run) but not real parallelism.
	Deterministic Mode = "deterministic"
	// Timed runs the workload on real goroutines for a wall-clock
	// duration. Throughput is real; records are not reproducible.
	Timed Mode = "timed"
)

// RunSpec describes one `proteusbench run` invocation: a scenario, its
// parameters, and either a list of fixed configurations (one result
// record each) or the auto-tuner over a configuration space.
type RunSpec struct {
	// Scenario names the registered scenario.
	Scenario string
	// Params overrides scenario parameter defaults.
	Params Values
	// Seed drives workload setup, per-slot operation streams and the
	// tuning machinery.
	Seed uint64
	// Configs are the fixed configurations to measure, one record each.
	// Ignored when AutoTune is set.
	Configs []config.Config
	// AutoTune runs RecTM's monitor/explore/install loop instead of
	// fixed configurations.
	AutoTune bool
	// Space is the tuning space for AutoTune (default
	// config.DefaultSpace(MaxThreads)).
	Space []config.Config
	// TrainKPI is the offline training Utility Matrix for AutoTune, with
	// one column per Space entry (default: synthetic, from the analytic
	// performance model).
	TrainKPI *cf.Matrix
	// MaxThreads is the number of worker slots (default 8).
	MaxThreads int
	// HeapWords sizes the transactional heap (default 1<<22).
	HeapWords int
	// Ops is the deterministic-mode operation budget (default 20000).
	Ops uint64
	// SampleEvery is the deterministic-mode KPI sampling interval in
	// operations (default Ops/10). It is also the per-configuration
	// profiling window during auto-tune exploration.
	SampleEvery uint64
	// OpCost is the virtual time charged per transaction attempt in
	// deterministic mode (default 1µs).
	OpCost time.Duration
	// Duration selects timed mode when positive: each configuration (or
	// the auto-tuned run) measures for this wall-clock span.
	Duration time.Duration

	// SLOOfferedRate activates the serving model for auto-tuned
	// deterministic runs: the run is scored as a serving deployment
	// facing an open-loop client population at this offered rate
	// (ops/sec). Each window's measured abort profile yields a modeled
	// capacity and queueing p99 (see servingCapacity/servingP99), the
	// KPI becomes the modeled capacity, and Samples carry P99Ms. Zero
	// disables the model (plain commit-rate KPI).
	SLOOfferedRate float64
	// SLOTargetMs is the p99 latency target (milliseconds) of the
	// serving model: Samples are scored for attainment against it and —
	// with SLOTune — the tuning KPI becomes
	// core.SLOPenalizedKPI(capacity, p99, target).
	SLOTargetMs float64
	// SLOTune switches the tuning KPI from raw modeled capacity to
	// throughput-under-SLO. Requires SLOOfferedRate and SLOTargetMs.
	SLOTune bool
	// MonitorMinDwell and MonitorBand override the change detector's
	// churn gates (see core.Options): zero keeps the defaults, a
	// positive value sets the gate, a negative value disables it.
	MonitorMinDwell int
	MonitorBand     float64
	// ExploreEpsilon overrides the SMBO early-stop threshold for
	// AutoTune (zero keeps the core default). A negative value disables
	// Expected-Improvement early stopping so a small tuning space is
	// swept exhaustively — what the A/B goldens use so every operating
	// point is measured rather than predicted.
	ExploreEpsilon float64
}

// Mode returns the mode the spec selects.
func (spec RunSpec) Mode() Mode {
	if spec.Duration > 0 {
		return Timed
	}
	return Deterministic
}

// Sample is one KPI observation along a run.
type Sample struct {
	// Ops is the cumulative operation count at the sample
	// (deterministic mode).
	Ops uint64 `json:"ops,omitempty"`
	// AtSec is the sample time in seconds since the run started (timed
	// mode).
	AtSec float64 `json:"at_sec,omitempty"`
	// Commits and Aborts are the window's transaction counts
	// (deterministic mode).
	Commits uint64 `json:"commits,omitempty"`
	Aborts  uint64 `json:"aborts,omitempty"`
	// KPI is committed transactions per (virtual or real) second.
	KPI float64 `json:"kpi"`
	// Config is the configuration installed during the window.
	Config string `json:"config"`
	// P99Ms is the serving model's queueing p99 for the window
	// (milliseconds; only set when RunSpec.SLOOfferedRate is active).
	P99Ms float64 `json:"p99_ms,omitempty"`
	// Exploring marks samples taken while profiling a candidate.
	Exploring bool `json:"exploring,omitempty"`
	// Alarm marks steady-state samples on which the CUSUM monitor
	// raised a change alarm.
	Alarm bool `json:"alarm,omitempty"`
}

// TraceEntry is one entry of the installed-configuration trace.
type TraceEntry struct {
	// Ops is the cumulative operation count at the event (deterministic
	// mode; zero in timed mode).
	Ops uint64 `json:"ops"`
	// Config is the configuration the event concerns.
	Config string `json:"config"`
	// Event is "initial" (run start), "explore" (candidate profiled) or
	// "install" (exploration winner installed).
	Event string `json:"event"`
	// Phase numbers the optimization phase the event belongs to (zero
	// for "initial").
	Phase int `json:"phase,omitempty"`
}

// Result is one scenario × configuration (or scenario × auto-tuner)
// result record. In deterministic mode every field is a pure function of
// the spec, so records can be diffed byte-for-byte across runs.
type Result struct {
	Scenario string `json:"scenario"`
	Family   string `json:"family"`
	Params   Values `json:"params"`
	Seed     uint64 `json:"seed"`
	Mode     Mode   `json:"mode"`
	AutoTune bool   `json:"autotune"`
	// Config is the fixed configuration, or the initial one under
	// auto-tuning.
	Config string `json:"config"`
	// FinalConfig is the configuration installed when the run ended.
	FinalConfig string `json:"final_config"`
	Ops         uint64 `json:"ops"`
	Commits     uint64 `json:"commits"`
	Aborts      uint64 `json:"aborts"`
	// AbortRate is aborts / (commits + aborts).
	AbortRate float64 `json:"abort_rate"`
	// ElapsedSec is virtual seconds in deterministic mode, wall seconds
	// in timed mode.
	ElapsedSec float64 `json:"elapsed_sec"`
	// Throughput is operations per elapsed second; CommitRate is
	// committed transactions per elapsed second (the paper's KPI).
	Throughput float64 `json:"throughput"`
	CommitRate float64 `json:"commit_rate"`
	// HeapDigest fingerprints the final transactional-heap contents
	// (deterministic mode only): two byte-identical records really did
	// leave the data structures in the same end state.
	HeapDigest string `json:"heap_digest,omitempty"`
	// SLOAttainment is the fraction of steady (non-exploring) windows
	// whose modeled p99 met RunSpec.SLOTargetMs (serving model only).
	SLOAttainment float64 `json:"slo_attainment,omitempty"`
	// Phases counts auto-tune optimization phases (1 = initial only).
	Phases  int          `json:"phases,omitempty"`
	Samples []Sample     `json:"samples,omitempty"`
	Trace   []TraceEntry `json:"trace"`
	// Metrics carries workload-specific counters (workloads.Metered),
	// e.g. the scan-locality and fence counts of the service-range
	// partitioner A/B. Keys marshal sorted, so deterministic-mode records
	// stay byte-diffable.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

func (spec *RunSpec) setDefaults() {
	if spec.MaxThreads <= 0 {
		spec.MaxThreads = 8
	}
	if spec.HeapWords <= 0 {
		spec.HeapWords = 1 << 22
	}
	if spec.Ops == 0 {
		spec.Ops = 20000
	}
	if spec.SampleEvery == 0 {
		spec.SampleEvery = spec.Ops / 10
		if spec.SampleEvery == 0 {
			spec.SampleEvery = 1
		}
	}
	if spec.OpCost <= 0 {
		spec.OpCost = time.Microsecond
	}
}

// Run executes the spec and returns one result record per fixed
// configuration, or a single record for an auto-tuned run.
func Run(spec RunSpec) ([]Result, error) {
	spec.setDefaults()
	s, ok := Lookup(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (try `proteusbench list`; have: %v)", spec.Scenario, Names())
	}
	if err := s.Validate(spec.Params); err != nil {
		return nil, err
	}
	if spec.AutoTune {
		res, err := runAutoTuned(s, spec)
		if err != nil {
			return nil, err
		}
		return []Result{*res}, nil
	}
	if len(spec.Configs) == 0 {
		spec.Configs = []config.Config{DefaultConfig(spec.MaxThreads)}
	}
	var out []Result
	for _, cfg := range spec.Configs {
		if cfg.Threads > spec.MaxThreads {
			return nil, fmt.Errorf("scenario: config %s needs more threads than --threads=%d", cfg, spec.MaxThreads)
		}
		res, err := runFixed(s, spec, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, *res)
	}
	return out, nil
}

// DefaultConfig is the fixed configuration a run falls back to when none
// is given: NOrec at min(4, maxThreads) threads.
func DefaultConfig(maxThreads int) config.Config {
	t := maxThreads
	if t > 4 {
		t = 4
	}
	if t < 1 {
		t = 1
	}
	return config.Config{Alg: config.NOrec, Threads: t}
}

// baseResult fills the spec-derived record fields.
func baseResult(s Scenario, spec RunSpec, cfg config.Config) *Result {
	params := spec.Params.Clone()
	// Record the full effective parameterization, not just overrides, so
	// records are self-describing even if schema defaults later change.
	for _, p := range s.Params {
		if _, ok := params[p.Name]; !ok {
			params[p.Name] = p.Default
		}
	}
	return &Result{
		Scenario: s.Name,
		Family:   s.Family,
		Params:   params,
		Seed:     spec.Seed,
		Mode:     spec.Mode(),
		AutoTune: spec.AutoTune,
		Config:   cfg.String(),
	}
}

// finish computes the derived totals of a record.
func (r *Result) finish(ops uint64, st tm.Stats, elapsedSec float64, final config.Config) {
	r.Ops = ops
	r.Commits = st.Commits
	r.Aborts = st.Aborts
	if att := st.Commits + st.Aborts; att > 0 {
		r.AbortRate = float64(st.Aborts) / float64(att)
	}
	r.ElapsedSec = elapsedSec
	if elapsedSec > 0 {
		r.Throughput = float64(ops) / elapsedSec
		r.CommitRate = float64(st.Commits) / elapsedSec
	}
	r.FinalConfig = final.String()
}

// verifyWorkload runs the workload's post-run invariant check, if it has
// one (workloads.Verifier) — e.g. TPCC's money invariant. Called with no
// transactions in flight.
func verifyWorkload(wl workloads.Workload, h *tm.Heap) error {
	if v, ok := wl.(workloads.Verifier); ok {
		if err := v.Verify(h); err != nil {
			return fmt.Errorf("scenario: post-run invariant: %w", err)
		}
	}
	return nil
}

// captureMetrics copies a Metered workload's counters into the record.
// Called after the run, with no operations in flight.
func captureMetrics(wl workloads.Workload, res *Result) {
	if m, ok := wl.(workloads.Metered); ok {
		res.Metrics = m.Metrics()
	}
}

// virtualSec converts a transaction-attempt count to virtual seconds.
func virtualSec(st tm.Stats, opCost time.Duration) float64 {
	return float64(st.Commits+st.Aborts) * opCost.Seconds()
}

// runFixed measures one fixed configuration.
func runFixed(s Scenario, spec RunSpec, cfg config.Config) (*Result, error) {
	res := baseResult(s, spec, cfg)
	wl, err := s.Make(spec.Params)
	if err != nil {
		return nil, err
	}
	pool := polytm.New(spec.HeapWords, spec.MaxThreads, cfg)
	if err := wl.Setup(pool.Heap(), workloads.NewRand(spec.Seed)); err != nil {
		return nil, fmt.Errorf("scenario %s: setup: %w", s.Name, err)
	}
	res.Trace = append(res.Trace, TraceEntry{Ops: 0, Config: cfg.String(), Event: "initial"})

	if spec.Mode() == Timed {
		return res, runFixedTimed(s, spec, cfg, wl, pool, res)
	}

	setupStats := pool.SnapshotStats() // exclude setup transactions
	sd := workloads.NewSerialDriver(wl, pool, spec.MaxThreads, spec.Seed)
	sd.SetSlots(cfg.Threads)
	last := setupStats
	for sd.Ops() < spec.Ops {
		n := spec.SampleEvery
		if rem := spec.Ops - sd.Ops(); rem < n {
			n = rem
		}
		sd.Run(n)
		cur := pool.SnapshotStats()
		win := cur.Sub(last)
		last = cur
		res.Samples = append(res.Samples, Sample{
			Ops:     sd.Ops(),
			Commits: win.Commits,
			Aborts:  win.Aborts,
			KPI:     windowKPI(win, spec.OpCost),
			Config:  cfg.String(),
		})
	}
	total := pool.SnapshotStats().Sub(setupStats)
	res.finish(sd.Ops(), total, virtualSec(total, spec.OpCost), cfg)
	res.HeapDigest = fmt.Sprintf("%016x", pool.Heap().Digest())
	captureMetrics(wl, res)
	if err := verifyWorkload(wl, pool.Heap()); err != nil {
		return nil, err
	}
	return res, nil
}

// windowKPI is committed transactions per virtual second over one window.
func windowKPI(win tm.Stats, opCost time.Duration) float64 {
	sec := virtualSec(win, opCost)
	if sec <= 0 {
		return 0
	}
	return float64(win.Commits) / sec
}

// servingEfficiency is the parallel-efficiency constant of the serving
// model: per-operation service time inflates by this fraction for every
// worker beyond the first, modeling the synchronization overhead that
// keeps real TM deployments from scaling linearly (the paper's Fig. 1).
// It is what gives the model its capacity/latency tradeoff — more
// workers raise aggregate capacity sublinearly while raising the
// per-request service-time floor, so the throughput-optimal thread count
// and the p99-optimal one can differ.
const servingEfficiency = 0.15

// servingCapacity models one measured window as a serving deployment:
// the window's abort profile gives the expected attempts per committed
// operation, the per-operation service time is attempts x OpCost
// inflated by the parallel-efficiency factor, and capacity is the
// aggregate rate threads such servers sustain. Returns capacity in
// ops/sec and the per-operation service time in seconds.
func servingCapacity(win tm.Stats, opCost time.Duration, threads int) (capacity, svcSec float64) {
	att := win.Commits + win.Aborts
	if win.Commits == 0 || att == 0 {
		return 0, 0
	}
	if threads < 1 {
		threads = 1
	}
	attempts := float64(att) / float64(win.Commits)
	svcSec = attempts * opCost.Seconds() * (1 + servingEfficiency*float64(threads-1))
	capacity = float64(threads) / svcSec
	return capacity, svcSec
}

// servingP99 is the modeled queueing p99 (milliseconds) of an open-loop
// client population at the given offered rate against a server with the
// given service time and capacity: the service-time floor plus an
// exponential-tail queueing term that grows with utilization
// (p99 = s x (1 + 4.6 x rho/(1-rho)), clamped near saturation).
func servingP99(svcSec, capacity, rate float64) float64 {
	if svcSec <= 0 {
		return 0
	}
	q := 0.0
	if capacity > 0 && rate > 0 {
		rho := rate / capacity
		if rho >= 1 {
			q = 64
		} else if q = rho / (1 - rho); q > 64 {
			q = 64
		}
	}
	return 1000 * svcSec * (1 + 4.6*q)
}

// runFixedTimed measures one fixed configuration on real goroutines.
func runFixedTimed(s Scenario, spec RunSpec, cfg config.Config, wl workloads.Workload, pool *polytm.Pool, res *Result) error {
	var antagonist *workloads.Interference
	if s.Antagonist != nil {
		antagonist = s.Antagonist(spec.Params)
		antagonist.Start()
		defer antagonist.Stop()
	}
	d := &workloads.Driver{Workload: wl, Runner: pool, MaxThreads: spec.MaxThreads, Seed: spec.Seed}
	setupStats := pool.SnapshotStats()
	if err := d.Start(); err != nil {
		return err
	}
	start := time.Now()
	time.Sleep(spec.Duration)
	elapsed := time.Since(start)
	ops := d.Ops()
	total := pool.SnapshotStats().Sub(setupStats)
	// Re-open the thread gate so parked workers can observe the stop flag.
	full := cfg
	full.Threads = spec.MaxThreads
	if err := pool.Reconfigure(full); err != nil {
		return err
	}
	d.Stop()
	res.finish(ops, total, elapsed.Seconds(), cfg)
	captureMetrics(wl, res)
	return verifyWorkload(wl, pool.Heap())
}

// runAutoTuned runs the full monitor → explore → install loop.
func runAutoTuned(s Scenario, spec RunSpec) (*Result, error) {
	space := spec.Space
	if len(space) == 0 {
		space = config.DefaultSpace(spec.MaxThreads)
	}
	for _, c := range space {
		// A column the pool cannot install would otherwise be profiled
		// as KPI 0, silently skewing the exploration.
		if c.Threads > spec.MaxThreads {
			return nil, fmt.Errorf("scenario: tuning-space config %s needs more threads than --threads=%d (re-sweep or raise --threads)", c, spec.MaxThreads)
		}
	}
	train := spec.TrainKPI
	if train == nil {
		train = perfmodel.SyntheticTraining(space, 60, spec.Seed)
	}
	vclock := core.NewVirtualClock(time.Time{})
	rt, err := core.New(core.Options{
		HeapWords:       spec.HeapWords,
		MaxThreads:      spec.MaxThreads,
		Configs:         space,
		TrainKPI:        train,
		KPI:             core.Throughput,
		Seed:            spec.Seed,
		Clock:           vclock,
		MonitorMinDwell: spec.MonitorMinDwell,
		MonitorBand:     spec.MonitorBand,
		Epsilon:         spec.ExploreEpsilon,
	})
	if err != nil {
		return nil, err
	}
	initial := rt.Pool.Config()
	res := baseResult(s, spec, initial)
	wl, err := s.Make(spec.Params)
	if err != nil {
		return nil, err
	}
	if err := wl.Setup(rt.Heap(), workloads.NewRand(spec.Seed)); err != nil {
		return nil, fmt.Errorf("scenario %s: setup: %w", s.Name, err)
	}
	res.Trace = append(res.Trace, TraceEntry{Ops: 0, Config: initial.String(), Event: "initial"})

	if spec.Mode() == Timed {
		return res, runAutoTunedTimed(s, spec, wl, rt, res)
	}

	setupStats := rt.Pool.SnapshotStats()
	sd := workloads.NewSerialDriver(wl, rt.Pool, spec.MaxThreads, spec.Seed)
	sd.SetSlots(initial.Threads)
	last := setupStats
	phase := 0

	rated, _ := wl.(workloads.Rated)
	serving := spec.SLOOfferedRate > 0 || rated != nil
	attain := spec.SLOOfferedRate > 0 && spec.SLOTargetMs > 0
	steadyWins, steadyMet := 0, 0

	// window runs n operations and returns the window's stats.
	window := func(n uint64) tm.Stats {
		sd.Run(n)
		cur := rt.Pool.SnapshotStats()
		win := cur.Sub(last)
		last = cur
		vclock.Advance(time.Duration(win.Commits+win.Aborts) * spec.OpCost)
		return win
	}
	// kpiOf scores one window under the active KPI model: the plain
	// commit rate, the delivered rate of a Rated (open-loop) workload
	// capped at the configuration's modeled capacity, or the serving
	// model's capacity / throughput-under-SLO.
	kpiOf := func(win tm.Stats, cfg config.Config) (kpi, p99 float64) {
		if !serving {
			return windowKPI(win, spec.OpCost), 0
		}
		capacity, svcSec := servingCapacity(win, spec.OpCost, cfg.Threads)
		if rated != nil {
			if r := rated.OfferedRate(sd.Ops()); capacity >= r {
				return r, 0
			}
			return capacity, 0
		}
		p99 = servingP99(svcSec, capacity, spec.SLOOfferedRate)
		kpi = capacity
		if spec.SLOTune && spec.SLOTargetMs > 0 {
			kpi = core.SLOPenalizedKPI(capacity, p99, spec.SLOTargetMs)
		}
		return kpi, p99
	}
	// steady scores a non-exploring window for SLO attainment.
	steady := func(p99 float64) {
		if !attain {
			return
		}
		steadyWins++
		if p99 <= spec.SLOTargetMs {
			steadyMet++
		}
	}
	// measure profiles one candidate configuration for ExploreSync.
	measure := func(cfg config.Config) float64 {
		if err := rt.Pool.Reconfigure(cfg); err != nil {
			return 0
		}
		sd.SetSlots(cfg.Threads)
		win := window(spec.SampleEvery)
		kpi, p99 := kpiOf(win, cfg)
		res.Trace = append(res.Trace, TraceEntry{Ops: sd.Ops(), Config: cfg.String(), Event: "explore", Phase: phase})
		res.Samples = append(res.Samples, Sample{
			Ops: sd.Ops(), Commits: win.Commits, Aborts: win.Aborts,
			KPI: kpi, P99Ms: p99, Config: cfg.String(), Exploring: true,
		})
		return kpi
	}
	// explore runs one optimization phase and re-anchors the monitor.
	explore := func() {
		phase++
		rt.ExploreSync(measure)
		installed := rt.Pool.Config()
		sd.SetSlots(installed.Threads)
		res.Trace = append(res.Trace, TraceEntry{Ops: sd.Ops(), Config: installed.String(), Event: "install", Phase: phase})
		win := window(spec.SampleEvery)
		level, p99 := kpiOf(win, installed)
		rt.ResetMonitor(level)
		steady(p99)
		res.Samples = append(res.Samples, Sample{
			Ops: sd.Ops(), Commits: win.Commits, Aborts: win.Aborts,
			KPI: level, P99Ms: p99, Config: installed.String(),
		})
	}

	explore() // the startup optimization phase (§6.4)
	for sd.Ops() < spec.Ops {
		n := spec.SampleEvery
		if rem := spec.Ops - sd.Ops(); rem < n {
			n = rem
		}
		win := window(n)
		kpi, p99 := kpiOf(win, rt.Pool.Config())
		alarm := rt.Observe(kpi)
		steady(p99)
		res.Samples = append(res.Samples, Sample{
			Ops: sd.Ops(), Commits: win.Commits, Aborts: win.Aborts,
			KPI: kpi, P99Ms: p99, Config: rt.Pool.Config().String(), Alarm: alarm,
		})
		if alarm {
			explore()
		}
	}
	total := rt.Pool.SnapshotStats().Sub(setupStats)
	res.Phases = phase
	if attain && steadyWins > 0 {
		res.SLOAttainment = float64(steadyMet) / float64(steadyWins)
	}
	res.finish(sd.Ops(), total, virtualSec(total, spec.OpCost), rt.Pool.Config())
	res.HeapDigest = fmt.Sprintf("%016x", rt.Heap().Digest())
	captureMetrics(wl, res)
	if err := verifyWorkload(wl, rt.Heap()); err != nil {
		return nil, err
	}
	return res, nil
}

// runAutoTunedTimed runs the wall-clock adapter thread under real load.
func runAutoTunedTimed(s Scenario, spec RunSpec, wl workloads.Workload, rt *core.Runtime, res *Result) error {
	var antagonist *workloads.Interference
	if s.Antagonist != nil {
		antagonist = s.Antagonist(spec.Params)
		antagonist.Start()
		defer antagonist.Stop()
	}
	d := &workloads.Driver{Workload: wl, Runner: rt.Pool, MaxThreads: spec.MaxThreads, Seed: spec.Seed}
	setupStats := rt.Pool.SnapshotStats()
	if err := d.Start(); err != nil {
		return err
	}
	rt.Start()
	start := time.Now()
	time.Sleep(spec.Duration)
	elapsed := time.Since(start)
	ops := d.Ops()
	rt.Stop()
	total := rt.Pool.SnapshotStats().Sub(setupStats)
	final := rt.Pool.Config()
	full := final
	full.Threads = spec.MaxThreads
	if err := rt.Pool.Reconfigure(full); err != nil {
		return err
	}
	d.Stop()
	if err := verifyWorkload(wl, rt.Heap()); err != nil {
		return err
	}
	for _, p := range rt.Timeline() {
		res.Samples = append(res.Samples, Sample{
			AtSec: p.At.Seconds(), KPI: p.KPI,
			Config: p.Config.String(), Exploring: p.Exploring,
		})
	}
	res.Phases = rt.Phases()
	res.finish(ops, total, elapsed.Seconds(), final)
	captureMetrics(wl, res)
	return nil
}
