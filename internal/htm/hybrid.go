package htm

import "repro/internal/tm"

// Hybrid is a Hybrid-NOrec-style TM (Dalessandro et al., ASPLOS 2011): a
// best-effort hardware fast path coordinated with a NOrec software slow path
// through the heap's global sequence lock. Any software (or hardware) commit
// increments the sequence lock, which conservatively aborts every in-flight
// hardware transaction — the one-counter HyNOrec scheme. As in the paper
// (footnote 4), hybrids participate in PolyTM's library but never win, so
// they are excluded from the tuned configuration spaces.
type Hybrid struct {
	ReadCap  int
	WriteCap int
	CM       *CM

	sw tmNOrec
}

// tmNOrec is the minimal interface the slow path needs; satisfied by
// stm.NOrec. It is re-declared locally to keep htm free of an stm import
// cycle (stm does not import htm either, but the indirection keeps the
// layering one-directional).
type tmNOrec interface {
	Begin(*tm.Ctx)
	Load(*tm.Ctx, tm.Addr) uint64
	Store(*tm.Ctx, tm.Addr, uint64)
	Commit(*tm.Ctx) bool
	Abort(*tm.Ctx)
}

// SetSlowPath installs the software fallback algorithm (a NOrec instance,
// passed as any value implementing the algorithm operations).
func (hy *Hybrid) SetSlowPath(sw tmNOrec) {
	hy.sw = sw
}

// Name implements tm.Algorithm.
func (hy *Hybrid) Name() string { return "hybrid" }

// Begin implements tm.Algorithm.
func (hy *Hybrid) Begin(c *tm.Ctx) {
	st := &c.HTM
	hy.CM.loadBudget(c)
	if st.Budget <= 0 {
		st.Fallback = true
		c.Stats.IncFallbackRun()
		hy.sw.Begin(c)
		return
	}
	st.Fallback = false
	c.ResetSets()
	c.AbortReason = tm.AbortNone
	// Subscribe to the sequence lock shared with the software path.
	for {
		v := c.H.Clock()
		if v&1 == 0 {
			st.SnapshotRV = v
			break
		}
	}
	st.InTx = true
}

// Load implements tm.Algorithm: a hardware read is a plain load plus a
// subscription check — if any commit happened since begin, abort.
func (hy *Hybrid) Load(c *tm.Ctx, a tm.Addr) uint64 {
	st := &c.HTM
	if st.Fallback {
		return hy.sw.Load(c, a)
	}
	if v, ok := c.WS.Get(a); ok {
		return v
	}
	v := c.H.LoadWord(a)
	if c.H.Clock() != st.SnapshotRV {
		c.Retry(tm.AbortConflict)
	}
	rcap, _ := caps(hy.ReadCap, hy.WriteCap)
	c.VRS.Add(a, v) // reuse the value read set purely as a footprint counter
	if c.VRS.Len() > rcap {
		c.Retry(tm.AbortCapacity)
	}
	return v
}

// Store implements tm.Algorithm: buffered until commit.
func (hy *Hybrid) Store(c *tm.Ctx, a tm.Addr, v uint64) {
	st := &c.HTM
	if st.Fallback {
		hy.sw.Store(c, a, v)
		return
	}
	_, wcap := caps(hy.ReadCap, hy.WriteCap)
	c.WS.Put(a, v)
	if c.WS.Len() > wcap {
		c.Retry(tm.AbortCapacity)
	}
	if c.H.Clock() != st.SnapshotRV {
		c.Retry(tm.AbortConflict)
	}
}

// Commit implements tm.Algorithm: the hardware path publishes its redo log
// under the sequence lock, which simultaneously aborts every other in-flight
// hardware transaction — HyNOrec's conservative single-counter coordination.
func (hy *Hybrid) Commit(c *tm.Ctx) bool {
	st := &c.HTM
	if st.Fallback {
		ok := hy.sw.Commit(c)
		if ok {
			st.Fallback = false
		}
		return ok
	}
	if c.WS.Len() == 0 {
		if c.H.Clock() != st.SnapshotRV {
			c.AbortReason = tm.AbortConflict
			return false
		}
		st.InTx = false
		return true
	}
	if !c.H.ClockCAS(st.SnapshotRV, st.SnapshotRV+1) {
		c.AbortReason = tm.AbortConflict
		return false
	}
	for _, e := range c.WS.Entries() {
		c.H.StoreWord(e.Addr, e.Val)
	}
	c.H.ClockStore(st.SnapshotRV + 2)
	st.InTx = false
	return true
}

// Abort implements tm.Algorithm.
func (hy *Hybrid) Abort(c *tm.Ctx) {
	st := &c.HTM
	if st.Fallback {
		hy.sw.Abort(c)
		st.Fallback = false
		return
	}
	st.InTx = false
	hy.CM.charge(st, c.AbortReason)
}
