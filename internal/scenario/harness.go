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
	configs := spec.Configs
	switch {
	case spec.AutoTune:
		// One record; run starts it from the tuner's reference
		// configuration.
		configs = []config.Config{{}}
	case len(configs) == 0:
		configs = []config.Config{DefaultConfig(spec.MaxThreads)}
	}
	var out []Result
	for _, cfg := range configs {
		if err := fitsThreads(cfg, spec.MaxThreads); err != nil {
			return nil, err
		}
		res, err := run(s, spec, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, *res)
	}
	return out, nil
}

// fitsThreads refuses a configuration the pool cannot install.
func fitsThreads(cfg config.Config, maxThreads int) error {
	if cfg.Threads > maxThreads {
		return fmt.Errorf("scenario: config %s needs more threads than --threads=%d", cfg, maxThreads)
	}
	return nil
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
	r.AbortRate = st.AbortRate()
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

// run measures one record. A fixed run pins cfg on a fresh pool; an
// auto-tuned run builds the tuner and starts from its reference
// configuration. In deterministic mode both measure windows of
// SampleEvery operations (see windows): a fixed run measures steady
// windows until the budget is spent, a tuned one runs the tuner's loop on
// them. Only the tuner explores, raises alarms and scores windows with the
// serving model and SLO attainment.
func run(s Scenario, spec RunSpec, cfg config.Config) (*Result, error) {
	var rt *core.Runtime
	var pool *polytm.Pool
	if spec.AutoTune {
		var err error
		if rt, err = newTuner(spec); err != nil {
			return nil, err
		}
		pool = rt.Pool
		cfg = pool.Config()
	} else {
		pool = polytm.New(spec.HeapWords, spec.MaxThreads, cfg)
	}
	res := baseResult(s, spec, cfg)
	wl, err := s.Make(spec.Params)
	if err != nil {
		return nil, err
	}
	if err := wl.Setup(pool.Heap(), workloads.NewRand(spec.Seed)); err != nil {
		return nil, fmt.Errorf("scenario %s: setup: %w", s.Name, err)
	}
	res.Trace = append(res.Trace, TraceEntry{Ops: 0, Config: cfg.String(), Event: "initial"})

	if spec.Mode() == Timed {
		return res, runTimed(s, spec, wl, pool, rt, res)
	}

	w := serialWindows(spec, wl, pool, res)
	setupStats := w.last // exclude setup transactions
	w.rated, _ = wl.(workloads.Rated)
	w.serving = rt != nil && (spec.SLOOfferedRate > 0 || w.rated != nil)
	w.attain = rt != nil && spec.SLOOfferedRate > 0 && spec.SLOTargetMs > 0
	if rt != nil {
		rt.Run(w)
		res.Phases = rt.Phases()
	} else {
		for _, ok := w.Measure(core.Steady, 0); ok; _, ok = w.Measure(core.Steady, 0) {
		}
	}
	total := pool.SnapshotStats().Sub(setupStats)
	if w.steadyWins > 0 {
		res.SLOAttainment = float64(w.steadyMet) / float64(w.steadyWins)
	}
	res.finish(w.sd.Ops(), total, virtualSec(total, spec.OpCost), pool.Config())
	res.HeapDigest = fmt.Sprintf("%016x", pool.Heap().Digest())
	captureMetrics(wl, res)
	if err := verifyWorkload(wl, pool.Heap()); err != nil {
		return nil, err
	}
	return res, nil
}

// windows is a record's window source: every window it measures becomes a
// sample, and an Explore or Install window a trace entry too. In
// deterministic mode (wall nil) a window is SampleEvery operations on the
// serial driver — a steady one no more than the budget has left, and none
// once it is spent — scored by kpiOf. In timed mode it is the tuner's
// wall-clock window, stamped with its time.
type windows struct {
	pool  *polytm.Pool
	res   *Result
	wall  core.WindowSource // timed mode
	start time.Time         // timed mode

	spec                  RunSpec
	sd                    *workloads.SerialDriver
	last                  tm.Stats
	rated                 workloads.Rated
	serving, attain       bool
	steadyWins, steadyMet int
}

// serialWindows is the deterministic-mode source over pool: windows on a
// serial driver of wl, counted from the pool's stats as they stand now
// and scored by the plain commit rate until the caller turns the serving
// model on.
func serialWindows(spec RunSpec, wl workloads.Workload, pool *polytm.Pool, res *Result) *windows {
	return &windows{pool: pool, res: res, spec: spec, last: pool.SnapshotStats(),
		sd: workloads.NewSerialDriver(wl, pool, spec.MaxThreads, spec.Seed)}
}

// Measure implements core.WindowSource.
func (w *windows) Measure(kind core.WindowKind, phase int) (float64, bool) {
	cfg := w.pool.Config()
	var ops uint64 // the trace's operation count; zero in timed mode
	if w.sd != nil {
		if ops = w.sd.Ops(); kind == core.Steady && ops >= w.spec.Ops {
			return 0, false
		}
	}
	if kind == core.Install {
		w.res.Trace = append(w.res.Trace, TraceEntry{Ops: ops, Config: cfg.String(), Event: "install", Phase: phase})
	}
	s := Sample{Config: cfg.String(), Exploring: kind == core.Explore}
	if w.wall != nil {
		var ok bool
		if s.KPI, ok = w.wall.Measure(kind, phase); !ok {
			return 0, false
		}
		s.AtSec = time.Since(w.start).Seconds()
	} else {
		n := w.spec.SampleEvery
		if kind == core.Steady {
			n = min(n, w.spec.Ops-ops)
		}
		w.sd.SetSlots(cfg.Threads)
		w.sd.Run(n)
		cur := w.pool.SnapshotStats()
		win := cur.Sub(w.last)
		w.last = cur
		s.Ops, s.Commits, s.Aborts = w.sd.Ops(), win.Commits, win.Aborts
		s.KPI, s.P99Ms = w.kpiOf(win, cfg)
		if w.attain && !s.Exploring { // SLO attainment counts steady windows
			w.steadyWins++
			if s.P99Ms <= w.spec.SLOTargetMs {
				w.steadyMet++
			}
		}
	}
	if s.Exploring {
		w.res.Trace = append(w.res.Trace, TraceEntry{Ops: s.Ops, Config: s.Config, Event: "explore", Phase: phase})
	}
	w.res.Samples = append(w.res.Samples, s)
	return s.KPI, true
}

// Alarm implements core.WindowSource: it flags the last sample.
func (w *windows) Alarm() { w.res.Samples[len(w.res.Samples)-1].Alarm = true }

// kpiOf scores one window under the active KPI model: the plain commit
// rate, the delivered rate of a Rated (open-loop) workload capped at the
// configuration's modeled capacity, or the serving model's capacity /
// throughput-under-SLO.
func (w *windows) kpiOf(win tm.Stats, cfg config.Config) (kpi, p99 float64) {
	spec := w.spec
	if !w.serving {
		return windowKPI(win, spec.OpCost), 0
	}
	capacity, svcSec := servingCapacity(win, spec.OpCost, cfg.Threads)
	if w.rated != nil {
		if r := w.rated.OfferedRate(w.sd.Ops()); capacity >= r {
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

// runTimed measures a record on real goroutines for spec.Duration. A nil
// rt is a fixed configuration; otherwise the tuner's adapter thread runs
// beside the workers on its wall-clock source, wrapped so that every
// window it measures lands in the record.
func runTimed(s Scenario, spec RunSpec, wl workloads.Workload, pool *polytm.Pool, rt *core.Runtime, res *Result) error {
	if s.Antagonist != nil {
		antagonist := s.Antagonist(spec.Params)
		antagonist.Start()
		defer antagonist.Stop()
	}
	d := &workloads.Driver{Workload: wl, Runner: pool, MaxThreads: spec.MaxThreads, Seed: spec.Seed}
	setupStats := pool.SnapshotStats()
	if err := d.Start(); err != nil {
		return err
	}
	start := time.Now()
	if rt != nil {
		rt.StartOn(&windows{pool: pool, res: res, wall: rt.WallClock(), start: start})
	}
	time.Sleep(spec.Duration)
	elapsed := time.Since(start)
	ops := d.Ops()
	if rt != nil {
		rt.Stop()
		res.Phases = rt.Phases()
	}
	total := pool.SnapshotStats().Sub(setupStats)
	d.Stop()
	res.finish(ops, total, elapsed.Seconds(), pool.Config())
	captureMetrics(wl, res)
	return verifyWorkload(wl, pool.Heap())
}

// newTuner builds the monitor → explore → install runtime over the
// tuning space.
func newTuner(spec RunSpec) (*core.Runtime, error) {
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
	return core.New(core.Options{
		HeapWords:       spec.HeapWords,
		MaxThreads:      spec.MaxThreads,
		Configs:         space,
		TrainKPI:        train,
		KPI:             core.Throughput,
		Seed:            spec.Seed,
		MonitorMinDwell: spec.MonitorMinDwell,
		MonitorBand:     spec.MonitorBand,
		Epsilon:         spec.ExploreEpsilon,
	})
}
