// Package proteustm is the public API of the ProteusTM reproduction: a
// transactional-memory runtime that hides a library of TM implementations
// (TL2, TinySTM, NOrec, SwissTM, simulated best-effort HTM, hybrids, global
// lock) behind one atomic-block interface and self-tunes the TM algorithm,
// the parallelism degree, and the HTM contention management to the running
// workload, following Didona et al., "ProteusTM: Abstraction Meets
// Performance in Transactional Memory" (ASPLOS 2016).
//
// # Programming model
//
// Applications allocate 64-bit words from a transactional heap and access
// them inside atomic blocks:
//
//	sys, _ := proteustm.Open(proteustm.WithWorkers(8))
//	defer sys.Close()
//	counter := sys.MustAlloc(1)
//	sys.Spawn(func(w *proteustm.Worker) {
//		for i := 0; i < 1000; i++ {
//			w.Atomic(func(tx proteustm.Txn) {
//				tx.Store(counter, tx.Load(counter)+1)
//			})
//		}
//	})
//	sys.Wait()
//
// With auto-tuning enabled (WithAutoTuning), an adapter thread explores
// configurations with Bayesian optimization over a collaborative-filtering
// performance predictor and installs the best one, re-optimizing whenever
// the monitor detects a workload change.
package proteustm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cf"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/scenario"
	"repro/internal/tm"
)

// Txn is the transactional access handle passed to atomic blocks.
type Txn = tm.Txn

// Addr addresses one 64-bit word of the transactional heap.
type Addr = tm.Addr

// NilAddr is the heap's null pointer.
const NilAddr = tm.NilAddr

// Config is one tuning-space point: TM algorithm, thread count, HTM
// contention management.
type Config = config.Config

// Algorithm identifiers re-exported for manual configuration.
const (
	TL2        = config.TL2
	TinySTM    = config.TinySTM
	NOrec      = config.NOrec
	SwissTM    = config.SwissTM
	HTM        = config.HTM
	Hybrid     = config.Hybrid
	GlobalLock = config.GlobalLock
)

// Stats are cumulative transaction statistics.
type Stats = tm.Stats

// Heap is the word-addressed transactional heap backing a System. Most
// applications only need Alloc/Load/Store on System; data-structure
// libraries (node pools, the internal/workloads containers) take a *Heap
// directly.
type Heap = tm.Heap

// TimelinePoint is one KPI observation recorded by the auto-tuning
// adapter thread: when it was taken, the KPI value, the configuration
// installed at the time, and whether the sample was part of an
// exploration phase.
type TimelinePoint = core.TimelinePoint

// ReconfigEvent records one completed optimization phase: the
// configuration installed, the one it replaced, the trigger ("startup",
// "monitor-alarm", "forced" or "sync") and the 1-based phase number.
type ReconfigEvent = core.ReconfigEvent

// Option configures Open.
type Option func(*options)

type options struct {
	heapWords    int
	workers      int
	autoTune     bool
	energyKPI    bool
	seed         uint64
	configs      []Config
	trainKPI     *cf.Matrix
	initial      *Config
	maxExplore   int
	samplePeriod time.Duration
	sloP99       time.Duration
	latencyP99   func() float64
}

// WithHeapWords sizes the transactional heap (default 1<<22 words = 32 MiB).
func WithHeapWords(n int) Option { return func(o *options) { o.heapWords = n } }

// WithWorkers sets the number of worker slots (default 8).
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithAutoTuning enables the RecTM adapter thread.
func WithAutoTuning() Option { return func(o *options) { o.autoTune = true } }

// WithEnergyKPI optimizes throughput-per-Joule instead of raw throughput.
func WithEnergyKPI() Option { return func(o *options) { o.energyKPI = true } }

// WithSLO optimizes throughput *subject to* a p99 latency target instead of
// raw throughput (core.ThroughputUnderSLO): KPI windows whose observed p99 —
// supplied in milliseconds by latencyP99, typically wired to a serving
// layer's request-latency reservoir — exceed the target are penalized
// quadratically in the overshoot, so the tuner prefers the fastest
// configuration that still meets the SLO. A nil latencyP99 or non-positive
// target degrades to plain throughput tuning. Takes precedence over
// WithEnergyKPI.
func WithSLO(p99Target time.Duration, latencyP99 func() float64) Option {
	return func(o *options) {
		o.sloP99 = p99Target
		o.latencyP99 = latencyP99
	}
}

// WithSeed fixes the random seed of the tuning machinery.
func WithSeed(s uint64) Option { return func(o *options) { o.seed = s } }

// WithConfigs overrides the tuned configuration space.
func WithConfigs(cfgs []Config) Option { return func(o *options) { o.configs = cfgs } }

// WithInitialConfig pins the starting configuration (default: the
// recommender's reference configuration).
func WithInitialConfig(c Config) Option { return func(o *options) { o.initial = &c } }

// WithMaxExplorations bounds each online exploration phase.
func WithMaxExplorations(n int) Option { return func(o *options) { o.maxExplore = n } }

// WithSamplePeriod sets the auto-tuner's KPI sampling period (default
// 100 ms; the paper uses 1 s). Shorter periods react to workload shifts
// faster at the cost of noisier KPI windows and more frequent statistics
// snapshots.
func WithSamplePeriod(d time.Duration) Option { return func(o *options) { o.samplePeriod = d } }

// WithTrainingMatrix supplies an offline training Utility Matrix (rows:
// workloads, columns aligned with the configuration space, entries: KPI).
// Without it, a synthetic training matrix from the built-in performance
// model is used.
func WithTrainingMatrix(m [][]float64) Option {
	return func(o *options) {
		rows, err := cf.FromRows(m)
		if err == nil {
			o.trainKPI = rows
		}
	}
}

// System is a ProteusTM instance.
type System struct {
	rt      *core.Runtime
	cfgs    []Config
	workers int
	tuning  bool

	mu      sync.Mutex
	nextID  int
	pending sync.WaitGroup
}

// Worker is a registered application thread with a PolyTM slot.
type Worker struct {
	sys *System
	// ID is the worker's PolyTM thread slot.
	ID int
}

// Atomic executes fn as a serializable transaction, retrying until commit.
func (w *Worker) Atomic(fn func(Txn)) { w.sys.rt.Atomic(w.ID, fn) }

// Open creates a ProteusTM system.
func Open(opts ...Option) (*System, error) {
	o := options{heapWords: 1 << 22, workers: 8, seed: 42, maxExplore: 10}
	for _, fn := range opts {
		fn(&o)
	}
	if o.workers <= 0 {
		return nil, fmt.Errorf("proteustm: workers must be positive")
	}
	cfgs := o.configs
	if len(cfgs) == 0 {
		cfgs = DefaultConfigs(o.workers)
	}
	train := o.trainKPI
	if train == nil {
		train = SyntheticTraining(cfgs, 60, o.seed)
	}
	kpi := core.Throughput
	if o.energyKPI {
		kpi = core.ThroughputPerJoule
	}
	var sloMs float64
	if o.sloP99 > 0 && o.latencyP99 != nil {
		kpi = core.ThroughputUnderSLO
		sloMs = float64(o.sloP99) / float64(time.Millisecond)
	}
	rt, err := core.New(core.Options{
		HeapWords:       o.heapWords,
		MaxThreads:      o.workers,
		Configs:         cfgs,
		TrainKPI:        train,
		KPI:             kpi,
		Energy:          energy.NewModel(18, 6.5),
		SLOTargetMs:     sloMs,
		LatencyP99:      o.latencyP99,
		Seed:            o.seed,
		MaxExplorations: o.maxExplore,
		SamplePeriod:    o.samplePeriod,
	})
	if err != nil {
		return nil, err
	}
	if o.initial != nil {
		if err := rt.Pool.Reconfigure(*o.initial); err != nil {
			return nil, err
		}
	}
	s := &System{rt: rt, cfgs: cfgs, workers: o.workers}
	if o.autoTune {
		rt.Start()
		s.tuning = true
	}
	return s, nil
}

// Alloc reserves n consecutive heap words.
func (s *System) Alloc(n int) (Addr, error) { return s.rt.Heap().Alloc(n) }

// Heap exposes the transactional heap, for data-structure libraries that
// allocate node pools directly. Application code normally sticks to
// Alloc/MustAlloc plus transactional Load/Store.
func (s *System) Heap() *Heap { return s.rt.Heap() }

// Workers returns the number of worker slots the system was opened with.
func (s *System) Workers() int { return s.workers }

// AutoTuning reports whether the adapter thread is running.
func (s *System) AutoTuning() bool { return s.tuning }

// MustAlloc reserves n words, panicking on heap exhaustion.
func (s *System) MustAlloc(n int) Addr { return s.rt.Heap().MustAlloc(n) }

// Load reads a heap word outside any transaction (setup/validation only).
func (s *System) Load(a Addr) uint64 { return s.rt.Heap().LoadWord(a) }

// Store writes a heap word outside any transaction (setup only).
func (s *System) Store(a Addr, v uint64) { s.rt.Heap().StoreWord(a, v) }

// Worker registers (or reuses) the worker slot with the given index.
func (s *System) Worker(id int) (*Worker, error) {
	if id < 0 || id >= s.workers {
		return nil, fmt.Errorf("proteustm: worker id %d out of range [0,%d)", id, s.workers)
	}
	return &Worker{sys: s, ID: id}, nil
}

// Spawn runs body on the next free worker slot in a new goroutine. Use Wait
// to join all spawned workers.
func (s *System) Spawn(body func(w *Worker)) error {
	s.mu.Lock()
	id := s.nextID
	if id >= s.workers {
		s.mu.Unlock()
		return fmt.Errorf("proteustm: all %d worker slots in use", s.workers)
	}
	s.nextID++
	s.mu.Unlock()
	s.pending.Add(1)
	go func() {
		defer s.pending.Done()
		body(&Worker{sys: s, ID: id})
	}()
	return nil
}

// Wait joins every goroutine started with Spawn.
func (s *System) Wait() { s.pending.Wait() }

// SetConfig manually installs a configuration (disable auto-tuning first or
// the adapter may override it).
func (s *System) SetConfig(c Config) error { return s.rt.Pool.Reconfigure(c) }

// CurrentConfig returns the installed configuration.
func (s *System) CurrentConfig() Config { return s.rt.Pool.Config() }

// Stats returns cumulative transaction statistics. It synchronizes with the
// worker threads by briefly parking each at a transaction boundary, so it
// must not be called from inside an atomic block (the caller would wait on
// its own in-flight transaction); call it between transactions.
func (s *System) Stats() Stats { return s.rt.Pool.SnapshotStats() }

// StatsPerWorker returns one statistics snapshot per worker slot, under
// the same synchronization and control-plane restriction as Stats.
func (s *System) StatsPerWorker() []Stats { return s.rt.Pool.SnapshotStatsPerThread() }

// Timeline returns a copy of the auto-tuner's KPI observation timeline
// (empty without WithAutoTuning).
func (s *System) Timeline() []TimelinePoint { return s.rt.Timeline() }

// Reconfigurations returns a copy of the optimization-phase event log:
// one entry per exploration phase, recording the installed configuration,
// its predecessor and the trigger.
func (s *System) Reconfigurations() []ReconfigEvent { return s.rt.Reconfigurations() }

// Phases returns the number of optimization phases run so far.
func (s *System) Phases() int { return s.rt.Phases() }

// Exploring reports whether an exploration phase is in progress.
func (s *System) Exploring() bool { return s.rt.Exploring() }

// OnReconfigure installs fn to run at the start of every reconfiguration,
// before any worker thread is gated, with the outgoing and incoming
// configuration. The runtime holds its configuration lock while fn runs,
// so fn must not call SetConfig, CurrentConfig, Stats or StatsPerWorker;
// it may block briefly. Serving layers use the hook to drain in-flight
// requests from worker slots the new configuration disables. Pass nil to
// remove the hook.
func (s *System) OnReconfigure(fn func(old, new Config)) { s.rt.Pool.SetReconfigureHook(fn) }

// Reoptimize triggers an immediate exploration phase (auto-tuning only).
func (s *System) Reoptimize() { s.rt.ForceReoptimize() }

// Close stops the adapter thread.
func (s *System) Close() error {
	if s.tuning {
		s.rt.Stop()
		s.tuning = false
	}
	return nil
}

// DefaultConfigs returns a compact tuning space for maxThreads workers:
// every STM × {1, 2, …, maxThreads} plus HTM contention-management
// variants. It is config.DefaultSpace — the same grid `proteusbench list`
// prints and `proteusbench sweep` profiles.
func DefaultConfigs(maxThreads int) []Config { return config.DefaultSpace(maxThreads) }

// SyntheticTraining builds a training Utility Matrix for the given
// configuration space from the analytic performance model (the substitute
// for profiling a base set of applications offline). The modeled machine
// is derived from the configuration space itself — see
// scenario.SyntheticTraining, which this delegates to.
func SyntheticTraining(cfgs []Config, workloads int, seed uint64) *cf.Matrix {
	return scenario.SyntheticTraining(cfgs, workloads, seed)
}
