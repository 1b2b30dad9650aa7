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
	// SamplePeriod is the Monitor's KPI sampling period (default 100 ms;
	// the paper uses 1 s).
	SamplePeriod time.Duration
	// SettleTime is the wait after a reconfiguration before measuring
	// (default SamplePeriod/2).
	SettleTime time.Duration
	// Epsilon is the SMBO stopping threshold (default 0.01).
	Epsilon float64
	// MaxExplorations bounds each exploration phase (default 10).
	MaxExplorations int
	// Seed drives randomized components.
	Seed uint64
	// Clock is the time source for KPI windows and settle waits (default
	// the wall clock). Supply a *VirtualClock to replay the adaptation
	// loop deterministically; in that mode drive the runtime through the
	// synchronous API (Observe, ExploreSync, ResetMonitor) instead of
	// Start, whose sampling ticker is inherently wall-clock.
	Clock Clock
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
	// At is the event time relative to Start (zero-based for runtimes
	// driven synchronously before Start).
	At time.Duration
	// From and To are the configurations before and after the phase; a
	// phase may re-install the incumbent (From == To).
	From, To config.Config
	// Reason is "startup", "monitor-alarm", "forced" or "sync"
	// (synchronous harness-driven exploration).
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
	clock   Clock
	started time.Time

	mu         sync.Mutex
	timeline   []TimelinePoint
	reconfigs  []ReconfigEvent
	phases     int
	exploring  atomic.Bool
	reoptimize chan struct{}
	stop       chan struct{}
	stopped    atomic.Bool // set by Stop before it closes stop
	done       sync.WaitGroup

	lastStats tm.Stats
	lastTime  time.Time
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
	if opts.SettleTime <= 0 {
		opts.SettleTime = opts.SamplePeriod / 2
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.01
	}
	if opts.MaxExplorations == 0 {
		opts.MaxExplorations = 10
	}
	if opts.Clock == nil {
		opts.Clock = RealTime()
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
		clock:      opts.Clock,
		cus:        cus,
		reoptimize: make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}, nil
}

// Heap exposes the transactional heap for application setup.
func (rt *Runtime) Heap() *tm.Heap { return rt.Pool.Heap() }

// Atomic executes an atomic block on worker slot self.
func (rt *Runtime) Atomic(self int, fn func(tm.Txn)) { rt.Pool.Atomic(self, fn) }

// Start launches the adapter thread: an immediate optimization phase
// followed by steady-state monitoring.
func (rt *Runtime) Start() {
	rt.started = rt.clock.Now()
	rt.lastStats = rt.Pool.SnapshotStats()
	rt.lastTime = rt.started
	rt.done.Add(1)
	go rt.adapterLoop()
}

// Stop terminates the adapter thread.
func (rt *Runtime) Stop() {
	rt.stopped.Store(true)
	close(rt.stop)
	rt.done.Wait()
}

// ForceReoptimize triggers a new exploration phase (used by tests; the
// Monitor triggers it autonomously in production).
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

// recordReconfig appends one optimization-phase event.
func (rt *Runtime) recordReconfig(from, to config.Config, reason string, phase int) {
	at := time.Duration(0)
	if !rt.started.IsZero() {
		at = rt.clock.Now().Sub(rt.started)
	}
	rt.mu.Lock()
	rt.reconfigs = append(rt.reconfigs, ReconfigEvent{At: at, From: from, To: to, Reason: reason, Phase: phase})
	rt.mu.Unlock()
}

// Phases returns the number of optimization phases run so far.
func (rt *Runtime) Phases() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.phases
}

// Exploring reports whether an exploration phase is in progress.
func (rt *Runtime) Exploring() bool { return rt.exploring.Load() }

// adapterLoop is the adapter thread (§4): optimize, then monitor.
func (rt *Runtime) adapterLoop() {
	defer rt.done.Done()
	rt.optimizePhase("startup")
	ticker := time.NewTicker(rt.opts.SamplePeriod)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-rt.reoptimize:
			rt.optimizePhase("forced")
		case <-ticker.C:
			kpi := rt.measureWindow()
			rt.record(kpi, false)
			if rt.cus.Observe(kpi) {
				rt.optimizePhase("monitor-alarm")
			}
		}
	}
}

// recommender returns the trained recommender, training it on first use.
// An auto-tuned runtime gets here on its adapter goroutine, a harness-driven
// one on the goroutine that calls ExploreSync; either way the application
// keeps running in the reference configuration meanwhile.
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

// explore runs one exploration phase: the recommender picks candidate
// configurations by Expected Improvement, measure profiles each, and the
// best explored configuration is installed. A runtime whose model cannot be
// trained keeps its configuration; the phase is logged with the reason.
func (rt *Runtime) explore(reason string, measure func(config.Config) float64) rectm.OptResult {
	rt.exploring.Store(true)
	defer rt.exploring.Store(false)
	rt.mu.Lock()
	rt.phases++
	phase := rt.phases
	seed := rt.opts.Seed + uint64(rt.phases)*0x9E3779B97F4A7C15
	rt.mu.Unlock()
	before := rt.Pool.Config()

	res := rectm.OptResult{Best: -1}
	rec, err := rt.recommender()
	if err != nil {
		reason += ": " + err.Error()
	} else {
		res = rec.Optimize(func(i int) float64 {
			return measure(rt.cfgs[i])
		}, nil, smbo.Options{
			Policy:          smbo.EI,
			Stop:            smbo.StopCautious,
			Epsilon:         rt.opts.Epsilon,
			MaxExplorations: rt.opts.MaxExplorations,
			Seed:            seed,
		})
	}
	switch {
	case rt.stopped.Load():
		// Stop cut the phase's windows short: its scores are not
		// measurements, so go back to the configuration it started from.
		rt.Pool.Reconfigure(before) //nolint:errcheck // it was installed
	case res.Best >= 0:
		rt.Pool.Reconfigure(rt.cfgs[res.Best]) //nolint:errcheck // validated configs
	}
	rt.recordReconfig(before, rt.Pool.Config(), reason, phase)
	return res
}

// optimizePhase runs one SMBO exploration on live KPI windows and installs
// the winner.
func (rt *Runtime) optimizePhase(reason string) {
	rt.explore(reason, rt.profileConfig)
	// Re-anchor the detector on the installed configuration's level.
	if settle, ok := rt.measureWindowAfter(rt.opts.SettleTime); ok {
		rt.cus.Reset(settle)
		rt.record(settle, false)
	}
}

// profileConfig installs cfg, lets the system settle, and measures one KPI
// window. After Stop it installs nothing, and a window Stop cut short
// scores 0 and is not recorded.
func (rt *Runtime) profileConfig(cfg config.Config) float64 {
	if rt.stopped.Load() || rt.Pool.Reconfigure(cfg) != nil {
		return 0
	}
	kpi, ok := rt.measureWindowAfter(rt.opts.SettleTime)
	if !ok {
		return 0
	}
	rt.record(kpi, true)
	return kpi
}

// measureWindowAfter waits the settle time, resets the window, and measures
// one sampling period. It reports false when Stop has cut the window short.
func (rt *Runtime) measureWindowAfter(settle time.Duration) (float64, bool) {
	rt.sleep(settle)
	rt.resetWindow()
	rt.sleep(rt.opts.SamplePeriod)
	return rt.measureWindow(), !rt.stopped.Load()
}

func (rt *Runtime) sleep(d time.Duration) {
	if _, virtual := rt.clock.(*VirtualClock); virtual {
		rt.clock.Sleep(d)
		return
	}
	select {
	case <-time.After(d):
	case <-rt.stop:
	}
}

// resetWindow re-anchors the stats window.
func (rt *Runtime) resetWindow() {
	rt.lastStats = rt.Pool.SnapshotStats()
	rt.lastTime = rt.clock.Now()
}

// measureWindow computes the KPI over the stats window since the last call.
func (rt *Runtime) measureWindow() float64 {
	now := rt.clock.Now()
	cur := rt.Pool.SnapshotStats()
	win := cur.Sub(rt.lastStats)
	elapsed := now.Sub(rt.lastTime)
	rt.lastStats = cur
	rt.lastTime = now
	if elapsed <= 0 {
		return 0
	}
	tput := float64(win.Commits) / elapsed.Seconds()
	switch rt.opts.KPI {
	case ThroughputPerJoule:
		s := energy.Sample{
			Elapsed: elapsed,
			Threads: rt.Pool.Config().Threads,
			Commits: win.Commits,
			Aborts:  win.Aborts,
		}
		return rt.opts.Energy.ThroughputPerJoule(s)
	case ThroughputUnderSLO:
		if rt.opts.LatencyP99 == nil {
			return tput
		}
		return SLOPenalizedKPI(tput, rt.opts.LatencyP99(), rt.opts.SLOTargetMs)
	default:
		return tput
	}
}

// record appends a timeline point.
func (rt *Runtime) record(kpi float64, exploring bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.timeline = append(rt.timeline, TimelinePoint{
		At:        rt.clock.Now().Sub(rt.started),
		KPI:       kpi,
		Config:    rt.Pool.Config(),
		Exploring: exploring,
	})
}

// --- Synchronous (virtual-time) driving ------------------------------------------
//
// The adapter thread above is wall-clock driven: KPI windows are real time
// and exploration happens on a background goroutine, so two runs of the
// same program never produce the same trace. The methods below expose the
// same monitor → explore → install loop synchronously, letting a harness
// (internal/scenario) interleave operation execution, virtual-time KPI
// measurement, and exploration on one goroutine — which makes the whole
// adaptation trace a deterministic function of the seed.

// Observe feeds one steady-state KPI sample to the CUSUM monitor and
// reports whether it raised a change alarm (at which point the caller
// should run ExploreSync).
func (rt *Runtime) Observe(kpi float64) bool { return rt.cus.Observe(kpi) }

// ResetMonitor re-anchors the change detector at the given KPI level, as
// the adapter thread does after installing a new configuration.
func (rt *Runtime) ResetMonitor(level float64) { rt.cus.Reset(level) }

// Configs returns the tuned configuration space (the UM columns).
func (rt *Runtime) Configs() []config.Config { return rt.cfgs }

// ExploreSync runs one exploration phase synchronously: measure profiles
// each candidate configuration (installing it, running the workload, and
// returning the KPI — all on the calling goroutine). Seeding matches the
// adapter thread's optimizePhase, so a fixed Options.Seed yields an
// identical exploration sequence.
func (rt *Runtime) ExploreSync(measure func(config.Config) float64) rectm.OptResult {
	return rt.explore("sync", measure)
}
