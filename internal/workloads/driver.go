package workloads

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tm"
)

// Driver runs a workload on a Runner with a fixed pool of worker
// goroutines, measuring committed operations over time. The number of
// *active* workers is governed by the Runner itself (PolyTM's thread gate);
// the driver always spawns MaxThreads goroutines, mirroring the paper's
// setup where the application owns its threads and PolyTM parks them.
type Driver struct {
	// Workload is the application under test.
	Workload Workload
	// Runner executes the atomic blocks.
	Runner Runner
	// MaxThreads is the number of worker goroutines.
	MaxThreads int
	// Seed derives each worker's RNG.
	Seed uint64

	ops     []paddedCounter
	stop    atomic.Bool
	wg      sync.WaitGroup
	started bool
}

type paddedCounter struct {
	n uint64
	_ [7]uint64
}

// Start launches the worker goroutines. The workload must already be set
// up.
func (d *Driver) Start() error {
	if d.started {
		return fmt.Errorf("driver: already started")
	}
	if d.MaxThreads <= 0 {
		return fmt.Errorf("driver: MaxThreads must be positive")
	}
	d.ops = make([]paddedCounter, d.MaxThreads)
	d.stop.Store(false)
	d.started = true
	for w := 0; w < d.MaxThreads; w++ {
		d.wg.Add(1)
		go func(id int) {
			defer d.wg.Done()
			rng := NewRand(d.Seed + uint64(id)*0x9E3779B97F4A7C15 + 1)
			for !d.stop.Load() {
				d.Workload.Op(d.Runner, id, rng)
				atomic.AddUint64(&d.ops[id].n, 1)
			}
		}(w)
	}
	return nil
}

// gated is a Runner that parks worker slots: PolyTM's thread gate.
type gated interface{ OpenGate() }

// Stop terminates the workers and waits for them. A gated Runner has every
// slot re-opened first, so a worker its configuration parked can observe
// the stop flag.
func (d *Driver) Stop() {
	if !d.started {
		return
	}
	d.stop.Store(true)
	if g, ok := d.Runner.(gated); ok {
		g.OpenGate()
	}
	d.wg.Wait()
	d.started = false
}

// Ops returns the total committed operations so far.
func (d *Driver) Ops() uint64 {
	var total uint64
	for i := range d.ops {
		total += atomic.LoadUint64(&d.ops[i].n)
	}
	return total
}

// MeasureThroughput runs the workload for the given duration and returns
// operations per second. The driver must have been started.
func (d *Driver) MeasureThroughput(dur time.Duration) float64 {
	before := d.Ops()
	start := time.Now()
	time.Sleep(dur)
	elapsed := time.Since(start)
	after := d.Ops()
	return float64(after-before) / elapsed.Seconds()
}

// SerialDriver executes a workload one operation at a time, round-robin
// over the active worker slots, with one deterministic RNG stream per slot
// (the same streams Driver's goroutines would use). Because operations
// never overlap, a fixed seed yields an identical operation sequence —
// and identical commit/abort counts — on every run, which is what the
// deterministic scenario harness builds on. Wall-clock throughput under a
// SerialDriver is meaningless; pair it with a virtual clock (one fixed
// cost per transaction attempt) or use Driver for timed measurements.
type SerialDriver struct {
	workload Workload
	runner   Runner
	rngs     []*Rand
	slots    int
	next     int
	ops      uint64
}

// NewSerialDriver builds a serial driver with maxSlots per-slot RNG
// streams, initially using all of them.
func NewSerialDriver(w Workload, r Runner, maxSlots int, seed uint64) *SerialDriver {
	if maxSlots <= 0 {
		maxSlots = 1
	}
	rngs := make([]*Rand, maxSlots)
	for i := range rngs {
		rngs[i] = NewRand(seed + uint64(i)*0x9E3779B97F4A7C15 + 1)
	}
	return &SerialDriver{workload: w, runner: r, rngs: rngs, slots: maxSlots}
}

// SetSlots restricts round-robin execution to the first n worker slots —
// the serial analogue of PolyTM's thread gate after a reconfiguration to n
// threads. Each slot keeps its RNG stream across SetSlots calls.
func (d *SerialDriver) SetSlots(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(d.rngs) {
		n = len(d.rngs)
	}
	d.slots = n
	if d.next >= n {
		d.next = 0
	}
}

// Step executes one operation on the next slot in round-robin order.
func (d *SerialDriver) Step() {
	slot := d.next
	d.next = (d.next + 1) % d.slots
	d.workload.Op(d.runner, slot, d.rngs[slot])
	d.ops++
}

// Run executes n operations.
func (d *SerialDriver) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		d.Step()
	}
}

// Ops returns the total operations executed so far.
func (d *SerialDriver) Ops() uint64 { return d.ops }

// RunFixed sets up the workload on h, runs it on runner for dur with
// maxThreads workers, and returns throughput (ops/sec). Convenience for
// experiments that measure one (workload, configuration) point.
func RunFixed(w Workload, runner Runner, h *tm.Heap, maxThreads int, dur time.Duration, seed uint64) (float64, error) {
	rng := NewRand(seed)
	if err := w.Setup(h, rng); err != nil {
		return 0, err
	}
	d := &Driver{Workload: w, Runner: runner, MaxThreads: maxThreads, Seed: seed}
	if err := d.Start(); err != nil {
		return 0, err
	}
	// Brief warm-up before the measurement window.
	time.Sleep(dur / 5)
	x := d.MeasureThroughput(dur)
	d.Stop()
	return x, nil
}
