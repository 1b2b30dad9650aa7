package shard

import "sync/atomic"

// Epoched is the atomically-swappable placement the serving layer routes
// with once resharding exists: a Partitioner paired with a monotonically
// increasing epoch, swapped as one unit. Every router, coordinator and
// recovery path loads the pair once per operation, stamps the epoch into
// the work it derives from the placement, and downstream checks compare
// epochs instead of partitioner pointers — a stale epoch names exactly
// the placement the work was computed under.
//
// The zero Epoched is not usable; build one with NewEpoched.
type Epoched struct {
	cur atomic.Pointer[epochedPlacement]
}

type epochedPlacement struct {
	epoch uint64
	p     Partitioner
}

// NewEpoched wraps p as epoch 0 — the placement the fleet booted with.
func NewEpoched(p Partitioner) *Epoched {
	e := &Epoched{}
	e.cur.Store(&epochedPlacement{epoch: 0, p: p})
	return e
}

// Load returns the current placement and its epoch as one consistent
// pair. Callers that route must stamp the returned epoch into the work
// they derive, so a later flip is detectable.
func (e *Epoched) Load() (Partitioner, uint64) {
	c := e.cur.Load()
	return c.p, c.epoch
}

// Epoch returns the current placement epoch.
func (e *Epoched) Epoch() uint64 { return e.cur.Load().epoch }

// Install atomically replaces the placement with p under the next epoch
// and returns that epoch. The caller must have published every resource
// the new placement can route to (grown fleet slice, migrated data)
// before calling Install: readers load the placement first, so anything
// it names must already exist.
func (e *Epoched) Install(p Partitioner) uint64 {
	for {
		old := e.cur.Load()
		next := &epochedPlacement{epoch: old.epoch + 1, p: p}
		if e.cur.CompareAndSwap(old, next) {
			return next.epoch
		}
	}
}

// MovePlan is one executable placement step, a split or a merge: the
// keys of [MovedLo, MovedHi] leave Donor for Recipient, and Next is the
// placement to install once they have been copied.
type MovePlan struct {
	// Donor is the shard losing the moved keys: the heaviest shard of a
	// split, the retiring top shard of a merge.
	Donor int
	// Recipient is the shard gaining them: a split's new shard (always
	// the current shard count, so installing Next grows the fleet by
	// exactly one), or the merge donor's left-adjacent neighbour.
	Recipient int
	// MovedLo and MovedHi bound the migrating keys, inclusive on both
	// ends (MovedHi is ^uint64(0) when the moved span is the key space's
	// top span).
	MovedLo, MovedHi uint64
	// Next is the placement after the move: one shard more after a split,
	// one fewer after a merge.
	Next *RangePartitioner
}

// PlanSplitHeaviest is the rebalance step: given per-shard load counters
// (e.g. the ops_routed column of /statusz, one entry per shard), it
// plans cutting the heaviest shard's widest span at its midpoint and
// handing the upper half to the new shard N. Ties break toward the
// lowest shard index and lowest start key, keeping the step
// deterministic for a given counter vector. It reports ok=false — an
// explicit no-op callers must not install — on an all-zero or empty
// load, or when no span of the heaviest shard is wide enough to cut.
func (p *RangePartitioner) PlanSplitHeaviest(load []uint64) (MovePlan, bool) {
	heaviest, best := -1, uint64(0)
	for s := 0; s < p.n && s < len(load); s++ {
		if heaviest == -1 || load[s] > best {
			heaviest, best = s, load[s]
		}
	}
	if heaviest < 0 || best == 0 {
		return MovePlan{}, false
	}
	i := p.widest(heaviest)
	if i < 0 {
		return MovePlan{}, false
	}
	grown, ok := p.split(i, p.n)
	if !ok {
		return MovePlan{}, false
	}
	// The new span is grown's span i+1, from the cut's midpoint.
	lo, hi := grown.spanKeys(i + 1)
	return MovePlan{Donor: heaviest, Recipient: p.n, MovedLo: lo, MovedHi: hi, Next: grown}, true
}
