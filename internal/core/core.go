// Package core assembles the complete ProteusTM runtime: PolyTM's
// polymorphic execution underneath, RecTM's recommender + SMBO controller
// deciding configurations, and the CUSUM Monitor watching the KPI stream for
// workload or environment changes (Fig. 2 of the paper).
//
// The runtime drives the online loop of §6.4: on startup (and whenever the
// Monitor raises an alarm) it enters an exploration phase, profiling a
// handful of configurations chosen by Expected Improvement, installs the
// best explored configuration, and returns to steady-state monitoring.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cf"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/monitor"
	"repro/internal/polytm"
	"repro/internal/rectm"
	"repro/internal/smbo"
	"repro/internal/tm"
)

// KPI selects the online key performance indicator being optimized.
type KPI int

const (
	// Throughput maximizes committed transactions per second.
	Throughput KPI = iota
	// ThroughputPerJoule maximizes energy efficiency (Fig. 1a's KPI),
	// using the machine's power model.
	ThroughputPerJoule
	// ThroughputUnderSLO maximizes throughput subject to a p99 latency
	// target: windows whose observed p99 (Options.LatencyP99) stays at or
	// under Options.SLOTargetMs score their raw throughput, windows that
	// blow the target are penalized quadratically in the overshoot (see
	// SLOPenalizedKPI). A serving layer sells a tail-latency objective,
	// not a commit rate, so this is the KPI proteusd tunes when an SLO is
	// configured.
	ThroughputUnderSLO
)

// HigherIsBetter reports the KPI orientation (all online KPIs maximize).
func (k KPI) HigherIsBetter() bool { return true }

// SLOPenalizedKPI folds a p99 latency observation into a throughput KPI:
// at or under the target the throughput passes through untouched; over the
// target it is scaled by (target/p99)², so a config that doubles the
// allowed tail keeps only a quarter of its throughput score. The quadratic
// penalty makes any config that meets the SLO beat any config that misses
// it unless the miss is marginal and the throughput gap is large — exactly
// the preference order an SLO-bound operator wants. Both the serving
// layer's wall-clock tuner and the deterministic scenario harness score
// windows through this one function.
func SLOPenalizedKPI(tput, p99Ms, targetMs float64) float64 {
	if targetMs <= 0 || p99Ms <= targetMs {
		return tput
	}
	r := targetMs / p99Ms
	return tput * r * r
}

// Options configures a Runtime.
type Options struct {
	// HeapWords sizes the transactional heap.
	HeapWords int
	// MaxThreads is the number of worker slots (≥ the largest thread
	// count in Configs).
	MaxThreads int
	// Configs is the tuned configuration space (columns of the UM).
	Configs []config.Config
	// TrainKPI is the offline training Utility Matrix in KPI space
	// (rows: training workloads, columns aligned with Configs).
	TrainKPI *cf.Matrix
	// KPI selects the optimization target.
	KPI KPI
	// Energy is the power model for ThroughputPerJoule.
	Energy energy.Model
	// SLOTargetMs is the p99 latency target in milliseconds for
	// ThroughputUnderSLO (required for that KPI; ignored otherwise).
	SLOTargetMs float64
	// LatencyP99 supplies the observed p99 latency in milliseconds for
	// ThroughputUnderSLO windows — the serving layer wires it to its
	// request-latency reservoir. Nil degrades ThroughputUnderSLO to plain
	// Throughput (no latency signal, no penalty).
	LatencyP99 func() float64
	// MonitorMinDwell overrides the change detector's minimum dwell
	// (samples after a re-anchor before alarms may fire): 0 keeps the
	// monitor default, positive sets that many samples, negative disables
	// the gate.
	MonitorMinDwell int
	// MonitorBand overrides the change detector's relative hysteresis
	// band: 0 keeps the monitor default, positive sets the band, negative
	// disables the gate.
	MonitorBand float64
	// SamplePeriod is the length of the adapter thread's KPI windows
	// (default 100 ms; the paper uses 1 s). A window that follows a
	// reconfiguration first lets the system settle for half a period.
	SamplePeriod time.Duration
	// Epsilon is the SMBO stopping threshold (default 0.01).
	Epsilon float64
	// MaxExplorations bounds each exploration phase (default 10).
	MaxExplorations int
	// Seed drives randomized components.
	Seed uint64
}

// TimelinePoint is one KPI observation, recorded for experiment plots.
type TimelinePoint struct {
	At        time.Duration
	KPI       float64
	Config    config.Config
	Exploring bool
}

// ReconfigEvent records one completed optimization phase: which
// configuration was installed, what it replaced, and why the phase ran.
// Serving layers surface this log so operators can see the adapter react
// to workload shifts.
type ReconfigEvent struct {
	// At is the event time relative to Start (to New for a loop run
	// without Start).
	At time.Duration
	// From and To are the configurations before and after the phase; a
	// phase may re-install the incumbent (From == To).
	From, To config.Config
	// Reason is "startup", "monitor-alarm" or "forced", with the error
	// appended when the recommender could not be trained.
	Reason string
	// Phase is the 1-based optimization-phase number.
	Phase int
}

// Runtime is a live ProteusTM instance.
type Runtime struct {
	Pool *polytm.Pool

	// The recommender is trained when tuning starts, not when the runtime
	// boots: prepared holds the fitted normalizer (which fixed the boot
	// configuration), and the first exploration phase — whichever goroutine
	// runs it — builds rec (or recErr) from it under recOnce.
	prepared *rectm.Prepared
	recOnce  sync.Once
	rec      *rectm.Recommender
	recErr   error

	opts    Options
	cfgs    []config.Config
	cus     *monitor.CUSUM
	started time.Time

	mu         sync.Mutex
	timeline   []TimelinePoint
	reconfigs  []ReconfigEvent
	phases     int
	exploring  atomic.Bool
	reoptimize chan struct{}
	stop       chan struct{}
	done       sync.WaitGroup
}

// New builds the runtime: it fits the rating normalizer on the offline UM and
// creates the PolyTM pool in the reference configuration that fit selects.
// Model selection and the ensemble fit — the expensive part of training —
// wait for the first exploration phase (see recommender), so a runtime that
// is never tuned never pays for them, and a tuned one serves in its
// reference configuration while the model trains.
func New(opts Options) (*Runtime, error) {
	if len(opts.Configs) == 0 {
		return nil, fmt.Errorf("core: no configurations")
	}
	if opts.TrainKPI == nil || opts.TrainKPI.Cols != len(opts.Configs) {
		return nil, fmt.Errorf("core: training matrix must have one column per configuration")
	}
	if opts.HeapWords <= 0 {
		opts.HeapWords = 1 << 22
	}
	if opts.MaxThreads <= 0 {
		for _, c := range opts.Configs {
			if c.Threads > opts.MaxThreads {
				opts.MaxThreads = c.Threads
			}
		}
	}
	if opts.SamplePeriod <= 0 {
		opts.SamplePeriod = 100 * time.Millisecond
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.01
	}
	if opts.MaxExplorations == 0 {
		opts.MaxExplorations = 10
	}
	prepared, err := rectm.Prepare(opts.TrainKPI, opts.KPI.HigherIsBetter(), rectm.Options{Seed: opts.Seed, Learners: 10})
	if err != nil {
		return nil, fmt.Errorf("core: training recommender: %w", err)
	}
	initial := opts.Configs[prepared.RefCol()]
	pool := polytm.New(opts.HeapWords, opts.MaxThreads, initial)
	cus := monitor.NewCUSUM()
	if opts.MonitorMinDwell != 0 {
		cus.MinDwell = max(opts.MonitorMinDwell, 0)
	}
	if opts.MonitorBand != 0 {
		cus.Band = math.Max(opts.MonitorBand, 0)
	}
	return &Runtime{
		Pool:       pool,
		prepared:   prepared,
		opts:       opts,
		cfgs:       opts.Configs,
		started:    time.Now(),
		cus:        cus,
		reoptimize: make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}, nil
}

// Heap exposes the transactional heap for application setup.
func (rt *Runtime) Heap() *tm.Heap { return rt.Pool.Heap() }

// Atomic executes an atomic block on worker slot self.
func (rt *Runtime) Atomic(self int, fn func(tm.Txn)) { rt.Pool.Atomic(self, fn) }

// Start launches the adapter thread: Run on the wall-clock source.
func (rt *Runtime) Start() { rt.StartOn(rt.WallClock()) }

// StartOn launches the adapter thread on src, which is usually the
// wall-clock source or a wrapper around it.
func (rt *Runtime) StartOn(src WindowSource) {
	rt.started = time.Now()
	rt.done.Add(1)
	go func() {
		defer rt.done.Done()
		rt.Run(src)
	}()
}

// Stop ends the wall-clock source's windows, which ends every loop
// running on it, and waits for the adapter thread.
func (rt *Runtime) Stop() {
	close(rt.stop)
	rt.done.Wait()
}

// ForceReoptimize asks the loop for a new exploration phase before its
// next steady window (used by tests; the Monitor triggers phases
// autonomously in production).
func (rt *Runtime) ForceReoptimize() {
	select {
	case rt.reoptimize <- struct{}{}:
	default:
	}
}

// Timeline returns a copy of the KPI timeline.
func (rt *Runtime) Timeline() []TimelinePoint {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]TimelinePoint, len(rt.timeline))
	copy(out, rt.timeline)
	return out
}

// Reconfigurations returns a copy of the optimization-phase event log.
func (rt *Runtime) Reconfigurations() []ReconfigEvent {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]ReconfigEvent, len(rt.reconfigs))
	copy(out, rt.reconfigs)
	return out
}

// Phases returns the number of optimization phases run so far.
func (rt *Runtime) Phases() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.phases
}

// Exploring reports whether an exploration phase is in progress.
func (rt *Runtime) Exploring() bool { return rt.exploring.Load() }

// Configs returns the tuned configuration space (the UM columns).
func (rt *Runtime) Configs() []config.Config { return rt.cfgs }

// WindowKind says what the loop will do with a KPI window.
type WindowKind int

const (
	// Steady windows feed the change monitor.
	Steady WindowKind = iota
	// Explore windows profile a candidate the phase has just installed.
	Explore
	// Install windows re-anchor the monitor on the configuration a phase
	// has just installed.
	Install
)

// A WindowSource measures the loop's KPI windows, each in the
// configuration installed when the loop asks for it.
type WindowSource interface {
	// Measure measures one window of the given kind; phase is the 1-based
	// optimization phase of an Explore or Install window. It reports
	// false when there is none: the run is over, or Stop cut it short.
	//
	// A KPI of NaN or ±Inf is no measurement. The loop treats an Explore
	// window with one as not-ok: it cuts the phase short and puts the
	// phase's start configuration back. An Install window with one leaves
	// the monitor's reference where it was, and a steady one the monitor
	// ignores.
	Measure(kind WindowKind, phase int) (kpi float64, ok bool)
	// Alarm says that the steady window just measured raised a change
	// alarm. The alarm's phase follows.
	Alarm()
}

// Run is the adaptation loop (§4, §6.4) on the calling goroutine: a
// startup phase, then steady windows fed to the monitor, with one phase
// per monitor alarm or per ForceReoptimize. It returns when src has no
// steady window left. The adapter thread runs it on the wall-clock
// source; a harness runs it on a source of its own, so the whole
// adaptation trace is a function of what that source measures.
func (rt *Runtime) Run(src WindowSource) {
	rt.phase("startup", src)
	for {
		select {
		case <-rt.reoptimize:
			rt.phase("forced", src)
			continue
		default:
		}
		kpi, ok := src.Measure(Steady, 0)
		if !ok {
			return
		}
		rt.record(kpi, false)
		if rt.cus.Observe(kpi) {
			src.Alarm()
			rt.phase("monitor-alarm", src)
		}
	}
}

// phase runs one optimization phase on src's windows: the recommender
// picks candidates by Expected Improvement, each is installed and
// profiled on an Explore window, and the best explored configuration is
// installed and re-anchors the monitor on an Install window. A phase
// whose Explore window was cut short or scored no measurement (NaN or
// ±Inf) installs nothing: its scores are not measurements, so it goes back
// to the configuration it started from and asks for no further window. A
// runtime whose model cannot be trained keeps its configuration. Either
// way the phase is logged with the reason.
func (rt *Runtime) phase(reason string, src WindowSource) {
	rt.exploring.Store(true)
	rt.mu.Lock()
	rt.phases++
	phase := rt.phases
	seed := rt.opts.Seed + uint64(rt.phases)*0x9E3779B97F4A7C15
	rt.mu.Unlock()
	before := rt.Pool.Config()

	cut := false
	res := rectm.OptResult{Best: -1}
	rec, err := rt.recommender()
	if err != nil {
		reason += ": " + err.Error()
	} else {
		res = rec.Optimize(func(i int) float64 {
			if cut || rt.Pool.Reconfigure(rt.cfgs[i]) != nil {
				return 0
			}
			kpi, ok := src.Measure(Explore, phase)
			if !ok || !finite(kpi) {
				cut = true
				return 0
			}
			rt.record(kpi, true)
			return kpi
		}, nil, smbo.Options{
			Policy:          smbo.EI,
			Stop:            smbo.StopCautious,
			Epsilon:         rt.opts.Epsilon,
			MaxExplorations: rt.opts.MaxExplorations,
			Seed:            seed,
		})
	}
	switch {
	case cut:
		rt.Pool.Reconfigure(before) //nolint:errcheck // it was installed
	case res.Best >= 0:
		rt.Pool.Reconfigure(rt.cfgs[res.Best]) //nolint:errcheck // validated configs
	}
	at := time.Since(rt.started)
	rt.mu.Lock()
	rt.reconfigs = append(rt.reconfigs, ReconfigEvent{At: at, From: before, To: rt.Pool.Config(), Reason: reason, Phase: phase})
	rt.mu.Unlock()
	rt.exploring.Store(false)
	if cut {
		return
	}
	if level, ok := src.Measure(Install, phase); ok && finite(level) {
		rt.cus.Reset(level)
		rt.record(level, false)
	}
}

// finite reports whether a KPI is a measurement: neither NaN nor ±Inf.
func finite(kpi float64) bool { return !math.IsNaN(kpi) && !math.IsInf(kpi, 0) }

// recommender returns the trained recommender, training it on first use —
// on the goroutine of whichever loop runs the first phase, while the
// application keeps running in the reference configuration.
func (rt *Runtime) recommender() (*rectm.Recommender, error) {
	rt.recOnce.Do(func() {
		trainings.Add(1)
		rt.rec, rt.recErr = rt.prepared.Train()
		rt.prepared = nil
	})
	return rt.rec, rt.recErr
}

// trainings counts recommender trainings process-wide; tests read it to
// prove that a runtime nobody tunes never trains.
var trainings atomic.Int64

// record appends a timeline point.
func (rt *Runtime) record(kpi float64, exploring bool) {
	at := time.Since(rt.started)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.timeline = append(rt.timeline, TimelinePoint{
		At:        at,
		KPI:       kpi,
		Config:    rt.Pool.Config(),
		Exploring: exploring,
	})
}

// WallClock returns a wall-clock window source over the runtime's pool
// (see NewWallClock): SamplePeriod windows scored by the runtime's KPI,
// ended by Stop.
func (rt *Runtime) WallClock() WindowSource {
	return NewWallClock(rt.Pool, rt.opts.SamplePeriod, rt.score, rt.stop)
}

// score is the runtime's KPI over one window.
func (rt *Runtime) score(win tm.Stats, elapsed time.Duration) float64 {
	switch rt.opts.KPI {
	case ThroughputPerJoule:
		if elapsed <= 0 {
			return 0
		}
		return rt.opts.Energy.ThroughputPerJoule(energy.Sample{
			Elapsed: elapsed,
			Threads: rt.Pool.Config().Threads,
			Commits: win.Commits,
			Aborts:  win.Aborts,
		})
	case ThroughputUnderSLO:
		if rt.opts.LatencyP99 == nil {
			return CommitRate(win, elapsed)
		}
		return SLOPenalizedKPI(CommitRate(win, elapsed), rt.opts.LatencyP99(), rt.opts.SLOTargetMs)
	default:
		return CommitRate(win, elapsed)
	}
}
