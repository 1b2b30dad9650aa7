// Package htm simulates best-effort hardware transactional memory (Intel
// TSX / IBM POWER8 class) and a hybrid TM on top of the transactional heap.
//
// The simulation reproduces the properties that matter to a TM tuner:
//
//   - low per-access cost (no ownership-record writes on the common path,
//     mirroring the paper's non-instrumented code path for HTM);
//   - bounded speculative capacity: transactions whose footprint exceeds the
//     modeled cache raise capacity aborts no matter how often they retry;
//   - eager conflict detection at cache-line granularity with remote aborts
//     (a writer invalidates concurrent readers, as coherence-based HTM does),
//     through per-slot read marks — see the protocol note above doomReaders;
//   - a software fallback path guarded by a global lock, plus the retry
//     budget and capacity-abort policies of §4.3 that PolyTM retunes online.
package htm

import (
	"runtime"
	"sync/atomic"

	"repro/internal/tm"
)

// CapacityPolicy is the reaction to a capacity abort (§4.3): how the
// remaining hardware retry budget is adjusted.
type CapacityPolicy int32

const (
	// PolicyGiveUp sets the budget to zero: go straight to the fallback.
	PolicyGiveUp CapacityPolicy = iota
	// PolicyDecrease decreases the budget by one, like any other abort.
	PolicyDecrease
	// PolicyHalve halves the remaining budget.
	PolicyHalve
)

// String returns the short label used in configuration encodings.
func (p CapacityPolicy) String() string {
	switch p {
	case PolicyGiveUp:
		return "giveup"
	case PolicyDecrease:
		return "decr"
	case PolicyHalve:
		return "half"
	}
	return "?"
}

// CM is the contention-management configuration shared by all threads
// running HTM. Both fields may be retuned at any moment without
// synchronization (different policies can coexist safely, §4.3), so they are
// plain atomics.
type CM struct {
	budget atomic.Int64
	policy atomic.Int32
}

// NewCM returns a contention manager with the given initial retry budget and
// capacity policy.
func NewCM(budget int, policy CapacityPolicy) *CM {
	cm := &CM{}
	cm.Set(budget, policy)
	return cm
}

// Set reconfigures the manager.
func (cm *CM) Set(budget int, policy CapacityPolicy) {
	cm.budget.Store(int64(budget))
	cm.policy.Store(int32(policy))
}

// Get returns the current configuration.
func (cm *CM) Get() (budget int, policy CapacityPolicy) {
	return int(cm.budget.Load()), CapacityPolicy(cm.policy.Load())
}

// HTM is the simulated best-effort hardware TM. ReadCap and WriteCap bound
// the speculative footprint in cache lines (stripes); the zero value of
// either selects the Machine-A-like defaults.
type HTM struct {
	ReadCap  int
	WriteCap int
	CM       *CM
}

// Default speculative capacities: the write set is bounded by an L1-sized
// buffer (32 KiB / 64 B = 512 lines); reads are tracked more loosely (an
// L2-backed bloom filter in real hardware).
const (
	DefaultReadCap  = 4096
	DefaultWriteCap = 448
)

func (h *HTM) caps() (int, int) {
	r, w := h.ReadCap, h.WriteCap
	if r == 0 {
		r = DefaultReadCap
	}
	if w == 0 {
		w = DefaultWriteCap
	}
	return r, w
}

// Name implements tm.Algorithm.
func (h *HTM) Name() string { return "htm" }

// Begin implements tm.Algorithm. The first attempt of a transaction loads
// the retry budget from the contention manager; once the budget is exhausted
// the attempt runs on the fallback path under the global lock. A hardware
// attempt publishes its epoch — which is what releases the previous attempt's
// read marks, all at once — and subscribes to the fallback lock so that a
// fallback acquisition aborts it.
func (h *HTM) Begin(c *tm.Ctx) {
	c.ResetSets()
	c.AbortReason = tm.AbortNone
	st := &c.HTM
	if st.Slot == nil {
		st.Slot = c.H.HTMAttach(c.ID)
		st.WLines = make([]uint32, 0, 64)
	}
	if st.LastTxn != c.TxnID {
		st.LastTxn = c.TxnID
		b := 5
		if h.CM != nil {
			b, _ = h.CM.Get()
		}
		st.Budget = b
	}
	st.Reads = 0
	st.WLines = st.WLines[:0]
	if st.Budget <= 0 {
		st.Fallback = true
		c.Stats.IncFallbackRun()
		c.H.FallbackAcquire()
		st.InTx = true
		return
	}
	st.Fallback = false
	e := st.Slot.Cur.Load() + 1
	if uint32(e) == 0 {
		// The 32-bit stamps are used up: clear the table, start over at 1.
		e = st.Slot.NewGeneration() + 1
	}
	st.Slot.Cur.Store(e)
	st.Epoch = e
	// Subscribe to the fallback lock: spin past any in-flight serial
	// transaction, then record the (even) lock value.
	for {
		v := c.H.FallbackLock()
		if v&1 == 0 {
			st.SnapshotRV = v
			break
		}
	}
	st.InTx = true
}

// Load implements tm.Algorithm. Hardware reads stamp the line in the slot's
// own mark table, refuse lines with an active speculative writer, and re-check
// the doom word and fallback subscription after reading so no inconsistent
// value ever escapes to the application.
func (h *HTM) Load(c *tm.Ctx, a tm.Addr) uint64 {
	heap := c.H
	st := &c.HTM
	if st.Fallback {
		// The serial path may still conflict with committing hardware
		// transactions holding writer slots: doom them and wait.
		s := heap.Stripe(a)
		h.evictWriter(c, s)
		if v, ok := c.WS.Get(a); ok {
			return v
		}
		return heap.LoadWord(a)
	}
	if v, ok := c.WS.Get(a); ok {
		return v
	}
	s := heap.Stripe(a)
	if mark, stamp := &st.Slot.Marks[s], uint32(st.Epoch); atomic.LoadUint32(mark) != stamp {
		rcap, _ := h.caps()
		if st.Reads >= rcap {
			h.cleanup(c)
			c.Retry(tm.AbortCapacity)
		}
		atomic.StoreUint32(mark, stamp)
		st.Reads++
	}
	if w := heap.WriterLoad(s); w != 0 && int(w-1) != c.ID {
		h.cleanup(c)
		c.Retry(tm.AbortConflict)
	}
	v := heap.LoadWord(a)
	h.check(c)
	return v
}

// Store implements tm.Algorithm. Hardware writes claim the line's writer
// slot (aborting on a writer-writer conflict), invalidate concurrent
// speculative readers, and buffer the value until commit.
func (h *HTM) Store(c *tm.Ctx, a tm.Addr, v uint64) {
	heap := c.H
	st := &c.HTM
	if st.Fallback {
		s := heap.Stripe(a)
		h.evictWriter(c, s)
		h.doomReaders(c, []uint32{s})
		c.WS.Put(a, v)
		return
	}
	s := heap.Stripe(a)
	if w := heap.WriterLoad(s); int(w) != c.ID+1 {
		if w != 0 {
			h.cleanup(c)
			c.Retry(tm.AbortConflict)
		}
		_, wcap := h.caps()
		if len(st.WLines) >= wcap {
			h.cleanup(c)
			c.Retry(tm.AbortCapacity)
		}
		if !heap.WriterCAS(s, 0, uint64(c.ID+1)) {
			h.cleanup(c)
			c.Retry(tm.AbortConflict)
		}
		st.WLines = append(st.WLines, s)
		h.doomReaders(c, st.WLines[len(st.WLines)-1:])
	}
	c.WS.Put(a, v)
	h.check(c)
}

// Commit implements tm.Algorithm: a final doom/subscription check, then the
// redo log is published while the writer slots are still held (so racing
// reads observe the conflict), and the footprint is released.
func (h *HTM) Commit(c *tm.Ctx) bool {
	heap := c.H
	st := &c.HTM
	if st.Fallback {
		for _, e := range c.WS.Entries() {
			heap.StoreWord(e.Addr, e.Val)
		}
		heap.FallbackRelease()
		st.InTx = false
		st.Fallback = false
		return true
	}
	if st.Slot.Doom.Load() == st.Epoch || heap.FallbackLock() != st.SnapshotRV {
		h.cleanup(c)
		c.AbortReason = tm.AbortConflict
		if heap.FallbackLock() != st.SnapshotRV {
			c.AbortReason = tm.AbortFallback
		}
		return false
	}
	// Invalidate readers of written lines once more: anything that marked
	// the line after our Store-time sweep must not commit a mixed view.
	h.doomReaders(c, st.WLines)
	stripes, stamp := st.Reads, uint32(st.Epoch)
	for _, s := range st.WLines {
		if atomic.LoadUint32(&st.Slot.Marks[s]) != stamp {
			stripes++ // written, never read
		}
	}
	for _, e := range c.WS.Entries() {
		heap.StoreWord(e.Addr, e.Val)
	}
	h.cleanup(c)
	c.Stats.Stripes += uint64(stripes)
	st.InTx = false
	return true
}

// Abort implements tm.Algorithm: release the speculative footprint and apply
// the contention-management policy to the retry budget.
func (h *HTM) Abort(c *tm.Ctx) {
	st := &c.HTM
	if st.Fallback && st.InTx {
		c.H.FallbackRelease()
		st.Fallback = false
		st.InTx = false
		return
	}
	h.cleanup(c)
	st.InTx = false
	switch c.AbortReason {
	case tm.AbortCapacity:
		policy := PolicyDecrease
		if h.CM != nil {
			_, policy = h.CM.Get()
		}
		switch policy {
		case PolicyGiveUp:
			st.Budget = 0
		case PolicyHalve:
			st.Budget /= 2
		default:
			st.Budget--
		}
	default:
		st.Budget--
	}
}

// check aborts the current hardware attempt if it has been doomed by a
// conflicting transaction or if a fallback transaction acquired the lock.
func (h *HTM) check(c *tm.Ctx) {
	st := &c.HTM
	if st.Slot.Doom.Load() == st.Epoch {
		h.cleanup(c)
		c.Retry(tm.AbortConflict)
	}
	if c.H.FallbackLock() != st.SnapshotRV {
		h.cleanup(c)
		c.Retry(tm.AbortFallback)
	}
}

// cleanup releases every writer slot held by the attempt. Its read marks need
// no release: the next Begin moves the slot to a new epoch, and until then a
// writer that finds one dooms an epoch no attempt will have again.
func (h *HTM) cleanup(c *tm.Ctx) {
	st := &c.HTM
	for _, s := range st.WLines {
		c.H.WriterStore(s, 0)
	}
	st.WLines = st.WLines[:0]
}

// The read-mark protocol. Slot t's attempt E (Begin: Cur[t] = E) reads stripe
// s by storing E's stamp in marks[t][s] — a table only t writes, so readers of
// one line share no metadata line — and then loading writers[s]; a writer
// claims writers[s] by CAS and then loads marks[t][s] for every other slot t
// that has run a hardware attempt. All four are sequentially consistent, so of
// a reader and a writer of one stripe at least one sees the other (Dekker):
// the reader finds the claim and aborts itself, or the writer finds the mark.
// A mark is live iff its stamp is Cur[t]'s — Cur[t] is stored before the
// attempt's first mark and loaded after the mark, so it can only be that
// attempt's epoch or a later one — and then the writer dooms exactly that
// attempt, Doom[t] = Cur[t]: t checks Doom[t] == E after each read, before the
// value escapes, and at commit, while the writer publishes only after its
// sweeps. A doom that lands after attempt E is over names an epoch nothing
// will have again, so Begin clears nothing and the next attempt is not killed.
//
// Cur[t] is the line t writes at every Begin, so a writer avoids it: Seen[t]
// (tm.HTMPeer, private to the writer's context) is the last Cur[t] it loaded.
// Epochs only grow, so a mark below Seen[t]'s stamp belongs to an attempt that
// is over — provided both are of one generation. Stamps are 32 bits of a
// 64-bit epoch; when they are used up (and at Heap.Reset) the slot stores
// Gen[t], clears its table and only then publishes the new generation's first
// Cur[t]. The writer loads Gen[t], a word that changes once per 2^32 attempts,
// after the mark: if it still equals Seen[t]'s generation, t had not begun to
// wrap when the mark was loaded, and no older generation's mark survived the
// clear that preceded the Cur[t] the writer saw — the mark and Seen[t] are
// comparable. If Gen[t] moved, the bound is dropped and Cur[t] loaded. A stale
// mark can equal the stamp of a Cur[t] from another generation only if the
// wrap falls between the writer's two loads; the cost is one spurious abort,
// never a missed one.

// doomReaders remotely aborts every speculative reader, other than c itself,
// of the given stripes.
func (h *HTM) doomReaders(c *tm.Ctx, stripes []uint32) {
	st := &c.HTM
	if slots := c.H.HTMSlots(); len(slots) != st.Attached {
		for _, sl := range slots[st.Attached:] {
			if sl != st.Slot {
				st.Peers = append(st.Peers, tm.HTMPeer{Slot: sl})
			}
		}
		st.Attached = len(slots)
	}
	for i := range st.Peers {
		p := &st.Peers[i]
		marks := p.Slot.Marks
		for _, s := range stripes {
			m := atomic.LoadUint32(&marks[s])
			if m == 0 {
				continue
			}
			if m < uint32(p.Seen) && p.Slot.Gen.Load() == p.Seen>>32 {
				continue
			}
			cur := p.Slot.Cur.Load()
			p.Seen = cur
			if uint32(cur) == m {
				p.Slot.DoomEpoch(cur)
			}
		}
	}
}

// evictWriter (fallback path only) dooms the speculative writer of stripe s,
// if any, and waits for it to release the slot.
func (h *HTM) evictWriter(c *tm.Ctx, s uint32) {
	heap := c.H
	for {
		w := heap.WriterLoad(s)
		if w == 0 || int(w-1) == c.ID {
			return
		}
		// The slot is held, so the holder's attempt is still Cur.
		victim := heap.HTMSlot(int(w - 1))
		victim.DoomEpoch(victim.Cur.Load())
		for i := 0; i < 128 && heap.WriterLoad(s) == w; i++ {
		}
		if heap.WriterLoad(s) == w {
			// Let the victim's goroutine run so it can observe the
			// doom and clean up.
			yield()
		}
	}
}

func yield() { runtime.Gosched() }
