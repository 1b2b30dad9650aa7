// Package polytm implements PolyTM, the polymorphic TM library of §4 of the
// paper: a single transactional interface behind which any of the TM
// backends can run, with run-time support to (i) switch the TM algorithm,
// (ii) adapt the parallelism degree, and (iii) retune the HTM contention
// management — the three reconfiguration dimensions the paper tunes.
//
// Safety follows the paper's invariant: a thread may run a transaction in
// mode TM_A only if no other thread is executing a transaction in mode TM_B.
// The invariant is enforced by the thread-gating protocol of Algorithm 1:
// one padded state word per thread, manipulated exclusively with
// fetch-and-add, with a RUN bit set by the thread for the duration of each
// transaction attempt and a BLOCK bit set by the adapter to park the thread.
package polytm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/htm"
	"repro/internal/stm"
	"repro/internal/tm"
)

const (
	// runBit is set by a thread while it executes a transaction attempt.
	runBit uint64 = 1
	// blockBit is set by the adapter to park a thread at its next
	// transaction boundary.
	blockBit uint64 = 1 << 32
)

// threadSlot is the per-thread gate state, padded to a cache line so the
// fetch-and-add in the common path never contends with neighbours.
type threadSlot struct {
	state uint64
	_     [7]uint64
	mu    sync.Mutex
	cond  *sync.Cond
	_pad2 [4]uint64 //nolint:unused // padding between slots
}

// Pool is a PolyTM instance: a transactional heap, a set of registered
// worker threads, the library of TM backends, and the currently installed
// configuration.
type Pool struct {
	heap *tm.Heap
	max  int

	slots []threadSlot
	ctxs  []*tm.Ctx

	algs [config.NumAlgs]tm.Algorithm
	cm   *htm.CM

	mode atomic.Uint32 // config.AlgID currently installed

	// cfgMu serializes reconfigurations (one adapter at a time).
	cfgMu   sync.Mutex
	current config.Config

	// reconfHook, when set, runs at the start of every Reconfigure —
	// under cfgMu, before any thread gating — so a serving layer can
	// drain in-flight work from slots about to be disabled (§4.2's
	// graceful-drain concern for long-running services).
	reconfHook func(old, new config.Config)

	// nonStoppable marks threads the programmer exempted from permanent
	// disabling (§4.2: e.g. a server's accept thread).
	nonStoppable []atomic.Bool
}

// New creates a PolyTM pool over a fresh heap with the given number of words
// and capacity for maxThreads registered worker threads. The initial
// configuration is cfg.
func New(heapWords, maxThreads int, cfg config.Config) *Pool {
	h := tm.NewHeap(heapWords, maxThreads)
	return NewWithHeap(h, maxThreads, cfg)
}

// NewWithHeap creates a pool over an existing heap.
func NewWithHeap(h *tm.Heap, maxThreads int, cfg config.Config) *Pool {
	p := &Pool{
		heap:         h,
		max:          maxThreads,
		slots:        make([]threadSlot, maxThreads),
		ctxs:         make([]*tm.Ctx, maxThreads),
		cm:           htm.NewCM(cfg.Budget, cfg.Policy),
		nonStoppable: make([]atomic.Bool, maxThreads),
	}
	for i := range p.slots {
		p.slots[i].cond = sync.NewCond(&p.slots[i].mu)
	}
	for i := range p.ctxs {
		p.ctxs[i] = tm.NewCtx(i, h)
	}
	for id := range p.algs {
		p.algs[id] = NewAlgorithm(config.AlgID(id), p.cm)
	}
	p.current = cfg
	p.mode.Store(uint32(cfg.Alg))
	// Park the slots beyond the configured parallelism degree.
	for t := cfg.Threads; t < maxThreads; t++ {
		p.setBlock(t)
	}
	return p
}

// NewAlgorithm builds the backend of PolyTM's library for id, the one place
// a backend is built. The HTM and Hybrid backends take their retry budget and
// capacity policy from cm; a nil cm means a budget of 5 and PolicyDecrease.
func NewAlgorithm(id config.AlgID, cm *htm.CM) tm.Algorithm {
	switch id {
	case config.TL2:
		return stm.TL2{}
	case config.TinySTM:
		return stm.TinySTM{}
	case config.NOrec:
		return stm.NOrec{}
	case config.SwissTM:
		return stm.SwissTM{}
	case config.HTM:
		return &htm.HTM{CM: cm}
	case config.Hybrid:
		hy := &htm.Hybrid{CM: cm}
		hy.SetSlowPath(stm.NOrec{})
		return hy
	case config.GlobalLock:
		return &stm.GlobalLock{}
	}
	panic(fmt.Sprintf("polytm: unknown algorithm %d", id))
}

// Heap returns the pool's transactional heap.
func (p *Pool) Heap() *tm.Heap { return p.heap }

// MaxThreads returns the number of registered worker slots.
func (p *Pool) MaxThreads() int { return p.max }

// Config returns the currently installed configuration.
func (p *Pool) Config() config.Config {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	return p.current
}

// Ctx exposes the transaction context of slot t (for statistics snapshots).
func (p *Pool) Ctx(t int) *tm.Ctx { return p.ctxs[t] }

// SetReconfigureHook installs fn to run at the start of every Reconfigure,
// before any thread is gated, with the outgoing and incoming configuration.
// The pool holds its configuration lock while fn runs, so fn must not call
// back into Reconfigure, Config or SnapshotStats; it may block briefly — a
// serving layer uses exactly that to drain in-flight requests from worker
// slots the new configuration disables, so no request is ever stranded on a
// parked thread. Pass nil to remove the hook.
func (p *Pool) SetReconfigureHook(fn func(old, new config.Config)) {
	p.cfgMu.Lock()
	p.reconfHook = fn
	p.cfgMu.Unlock()
}

// SetNonStoppable exempts thread t from permanent disabling when the
// parallelism degree shrinks (it may still be parked briefly during a TM
// switch), mirroring the library call described in §4.2.
func (p *Pool) SetNonStoppable(t int, v bool) { p.nonStoppable[t].Store(v) }

// Atomic executes fn as a transaction on worker slot t under the currently
// installed configuration, retrying until commit. It is PolyTM's
// implementation of the TM ABI's tm_begin/tm_end pair: each attempt passes
// through the thread gate, so reconfigurations are observed even by
// transactions stuck in retry storms. A panic raised by fn propagates to the
// caller with the attempt aborted and the gate left.
func (p *Pool) Atomic(t int, fn func(tm.Txn)) {
	c := p.ctxs[t]
	c.Attempts = 0
	c.TxnID++
	for {
		p.gateEnter(t)
		alg := p.algs[config.AlgID(p.mode.Load())]
		alg.Begin(c)
		code, ok, foreign := tm.Attempt(alg, c, fn)
		if ok {
			c.Stats.IncCommit()
			p.gateExit(t)
			return
		}
		c.AbortReason = code
		alg.Abort(c)
		if foreign != nil {
			// fn itself panicked: the attempt is released, so leave the
			// gate too (a set RUN bit would hang every later Reconfigure
			// and SnapshotStats) and let the panic continue.
			p.gateExit(t)
			panic(foreign)
		}
		c.Stats.Record(code)
		c.Attempts++
		p.gateExit(t)
		c.Backoff()
	}
}

// gateEnter implements the application-thread side of Algorithm 1: announce
// the attempt with a fetch-and-add of the RUN bit; if the adapter won the
// race (BLOCK set), retract and wait to be re-enabled.
func (p *Pool) gateEnter(t int) {
	s := &p.slots[t]
	for {
		val := atomic.AddUint64(&s.state, runBit)
		if val&blockBit == 0 {
			return
		}
		atomic.AddUint64(&s.state, ^runBit+1) // -runBit
		s.mu.Lock()
		for atomic.LoadUint64(&s.state)&blockBit != 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}
}

// gateExit clears the RUN bit at the end of an attempt.
func (p *Pool) gateExit(t int) {
	atomic.AddUint64(&p.slots[t].state, ^runBit+1) // -runBit
}

// setBlock implements disable-thread of Algorithm 1: raise the BLOCK bit
// with a fetch-and-add and spin until the thread's current attempt (if any)
// finishes.
func (p *Pool) setBlock(t int) {
	s := &p.slots[t]
	val := atomic.AddUint64(&s.state, blockBit)
	for val&runBit != 0 {
		val = atomic.LoadUint64(&s.state)
	}
}

// clearBlock implements enable-thread: drop the BLOCK bit and wake the
// thread if it parked.
func (p *Pool) clearBlock(t int) {
	s := &p.slots[t]
	s.mu.Lock()
	atomic.AddUint64(&s.state, ^blockBit+1) // -blockBit
	s.cond.Broadcast()
	s.mu.Unlock()
}

// blocked reports whether slot t currently has the BLOCK bit raised.
func (p *Pool) blocked(t int) bool {
	return atomic.LoadUint64(&p.slots[t].state)&blockBit != 0
}

// OpenGate re-enables every parked worker slot and leaves the installed
// configuration as it is. A driver calls it when it stops its workers: a
// worker parked by a low-thread configuration sees its stop flag only once
// its slot is open. The next Reconfigure parks the surplus slots again.
func (p *Pool) OpenGate() {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	for t := range p.slots {
		if p.blocked(t) {
			p.clearBlock(t)
		}
	}
}

// Reconfigure atomically installs cfg, using the cheapest safe protocol for
// the delta (§4):
//
//   - contention-management-only changes need no synchronization;
//   - parallelism-only changes block/unblock individual threads;
//   - TM-algorithm changes quiesce all threads (parallelism to zero), swap
//     the mode, then restore the requested parallelism — the three-step
//     procedure of §4.1.
func (p *Pool) Reconfigure(cfg config.Config) error {
	if cfg.Threads < 1 || cfg.Threads > p.max {
		return fmt.Errorf("polytm: parallelism degree %d out of range [1,%d]", cfg.Threads, p.max)
	}
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()

	if p.reconfHook != nil {
		p.reconfHook(p.current, cfg)
	}
	p.cm.Set(cfg.Budget, cfg.Policy)

	if cfg.Alg != p.current.Alg {
		// Quiesce everyone, switch, restore.
		for t := 0; t < p.max; t++ {
			if !p.blocked(t) {
				p.setBlock(t)
			}
		}
		// The version-clock STMs advance the global clock by one per
		// commit; NOrec and Hybrid reuse it as a sequence lock where odd
		// means "writer in flight". With every thread quiesced it is
		// safe to restore even parity for the incoming algorithm.
		if p.heap.Clock()&1 == 1 {
			p.heap.ClockAdd(1)
		}
		p.mode.Store(uint32(cfg.Alg))
		for t := 0; t < cfg.Threads; t++ {
			p.clearBlock(t)
		}
		p.current = cfg
		return nil
	}

	// Same algorithm: adjust parallelism degree only.
	for t := 0; t < cfg.Threads; t++ {
		if p.blocked(t) {
			p.clearBlock(t)
		}
	}
	for t := cfg.Threads; t < p.max; t++ {
		if !p.blocked(t) && !p.nonStoppable[t].Load() {
			p.setBlock(t)
		}
	}
	p.current = cfg
	return nil
}

// SnapshotStats returns the summed per-thread statistics. The per-thread
// counters are owner-local plain fields (the fast path carries no atomic
// RMWs), so the pool briefly parks each thread at its next transaction
// boundary — the same Algorithm-1 gate reconfigurations use — to establish
// happens-before with the owner before reading. The pause per thread is at
// most one in-flight transaction attempt; cfgMu keeps the gate manipulation
// exclusive with concurrent reconfigurations.
//
// SnapshotStats is a control-plane API: it MUST NOT be called from inside
// an atomic block. The calling goroutine would hold its own slot's RUN bit
// and then wait for that bit to clear — a self-deadlock (it would also be
// semantically meaningless: a transaction reading the aggregate of
// concurrent counters is unserializable). Call it between transactions, as
// the monitor, the harness and the examples do.
func (p *Pool) SnapshotStats() tm.Stats {
	var total tm.Stats
	for _, s := range p.SnapshotStatsPerThread() {
		total.Add(s)
	}
	return total
}

// SnapshotStatsPerThread returns one statistics snapshot per worker slot,
// synchronized the same way as SnapshotStats (and under the same
// control-plane restriction: never call it from inside an atomic block).
// Serving layers use it to expose per-worker commit/abort counters.
func (p *Pool) SnapshotStatsPerThread() []tm.Stats {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	out := make([]tm.Stats, len(p.ctxs))
	for t, c := range p.ctxs {
		wasBlocked := p.blocked(t)
		if !wasBlocked {
			p.setBlock(t)
		}
		out[t] = c.Stats.Snapshot()
		if !wasBlocked {
			p.clearBlock(t)
		}
	}
	return out
}
