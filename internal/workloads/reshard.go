package workloads

import (
	"fmt"
	"sync/atomic"

	"repro/internal/shard"
	"repro/internal/tm"
)

// ServiceReshard is the deterministic twin of proteusd's live
// split-and-migrate (internal/serve POST /admin/reshard): a
// range-partitioned store under skewed traffic that plans SplitHeaviest
// steps from per-shard routed-operation counters, migrates each moved
// span under the donor's fence, and flips an epoch-stamped placement —
// while clients keep routing through a deliberately stale placement
// replica that is only refreshed on a fixed cadence. Operations routed
// under the stale replica bounce off the donor's placement-epoch word
// and re-route against the live placement, pinning the
// stale-client-placement bugfix family as protocol algebra: every
// bounce is counted, every replica refresh that observes a new epoch is
// counted, and Verify sweeps every key onto the shard the final
// placement owns it on.
//
// Time is operation count, not wall clock: splits fire at fixed
// operation indices (every SplitEvery-th op, up to MaxShards), the
// replica refreshes at fixed indices (every RefreshEvery-th op), and
// fence heartbeats are stamped with operation numbers — so a fixed seed
// splits the same spans at the same operations every run, the property
// the byte-pinned service-reshard goldens lean on. The live daemon's
// reshard (wall-clock autosplit, HTTP admin surface, real goroutines)
// is exercised by the serve tests and the reshard e2e job.
type ServiceReshard struct {
	// Shards is the initial shard count.
	Shards int
	// MaxShards is the shard-count ceiling; each split grows the fleet
	// by one until it is reached.
	MaxShards int
	// KeyRange bounds the keys and is the range partitioner's universe.
	KeyRange int
	// InitialSize pre-populates the stores (0 = KeyRange/2).
	InitialSize int
	// HotTenth is the per-mille probability that an operation draws its
	// key from the hot span [0, KeyRange/8) instead of uniformly, so
	// the low shard stays the heaviest and SplitHeaviest keeps cutting
	// it.
	HotTenth int
	// SplitEvery is the split cadence in operations: every
	// SplitEvery-th operation attempts one plan-and-migrate step.
	SplitEvery int
	// RefreshEvery is the client placement-replica refresh cadence in
	// operations: between a flip and the next refresh, single-key
	// operations route through the stale replica and must bounce.
	RefreshEvery int
	// MigrateBatch is the fenced copy/delete batch width in keys.
	MigrateBatch int
	// CrossEvery makes every CrossEvery-th operation a cross-shard
	// batch put, showing migration composes with the 2PC fences.
	CrossEvery int
	// BatchKeys is the cross-shard batch width.
	BatchKeys int

	mover
}

// mover is the part of ServiceReshard and ServiceMerge that differs only
// in names: the kernel store, the client's stale placement replica, the
// per-shard routed-op load signal the planners read, and the operation
// schedule around the span moves. Each twin supplies its key draw and
// its planner.
type mover struct {
	kv *svcShards
	// replica is the client-side copy of the placement, refreshed only
	// every refreshEvery ops — the stale replica whose misroutes the
	// bounce path must absorb.
	replica atomic.Pointer[svcPlace]
	routed  []atomic.Uint64
	ops     atomic.Uint64

	moves, skips, blocks, migrated        atomic.Uint64
	bounces, replans, fencedSkip          atomic.Uint64
	batches, committed, blocked           atomic.Uint64
	moveEvery, refreshEvery, migrateBatch int
	crossEvery, batchKeys                 int
	draw                                  func(*Rand) uint64
	plan                                  func(*shard.RangePartitioner, []uint64) (svcMove, bool)
}

// Name implements Workload.
func (s *ServiceReshard) Name() string { return "service-reshard" }

// Setup implements Workload: MaxShards stores are pre-built, so splits
// allocate nothing.
func (s *ServiceReshard) Setup(h *tm.Heap, rng *Rand) error {
	s.mover = mover{moveEvery: s.SplitEvery, refreshEvery: s.RefreshEvery, migrateBatch: s.MigrateBatch,
		crossEvery: s.CrossEvery, batchKeys: s.BatchKeys, draw: s.key,
		plan: func(p *shard.RangePartitioner, load []uint64) (svcMove, bool) {
			if p.Shards() >= s.MaxShards {
				return svcMove{}, false
			}
			plan, ok := p.PlanSplitHeaviest(load)
			return svcMove{plan.Donor, plan.NewShard, plan.MovedLo, plan.MovedHi, plan.Grown}, ok
		}}
	return s.setup("reshard", h, rng, max(s.MaxShards, s.Shards), s.Shards, s.KeyRange, s.InitialSize)
}

// setup validates the schedule and builds the kernel store over a range
// placement of shards shards, with stores pre-built stores.
func (m *mover) setup(twin string, h *tm.Heap, rng *Rand, stores, shards, keyRange, initial int) error {
	if err := positive(twin, shards, keyRange, m.moveEvery, m.refreshEvery, m.migrateBatch, m.crossEvery, m.batchKeys); err != nil {
		return err
	}
	kv, err := newSvcShards(h, rng, stores, shard.NewRange(shards, uint64(keyRange)), keyRange, initial)
	if err != nil {
		return fmt.Errorf("%s: %w", twin, err)
	}
	m.kv = kv
	m.replica.Store(kv.place.Load())
	m.routed = make([]atomic.Uint64, stores)
	return nil
}

// key draws a key, hot-span-skewed so the low shard stays heaviest.
func (s *ServiceReshard) key(rng *Rand) uint64 {
	if rng.Intn(1000) < s.HotTenth {
		return uint64(rng.Intn(s.KeyRange / 8))
	}
	return uint64(rng.Intn(s.KeyRange))
}

// Op implements Workload: refresh the placement replica on its cadence,
// run one span move on its cadence, else a cross-shard batch or a
// single-key operation routed through the (possibly stale) replica.
func (m *mover) Op(r Runner, self int, rng *Rand) {
	n := m.ops.Add(1)
	if n%uint64(m.refreshEvery) == 0 {
		if live := m.kv.place.Load(); m.replica.Load().epoch != live.epoch {
			m.replica.Store(live)
			m.replans.Add(1)
		}
	}
	switch {
	case n%uint64(m.moveEvery) == 0:
		m.move(r, self, n)
	case n%uint64(m.crossEvery) == 0:
		m.crossBatch(r, self, rng, n)
	default:
		m.singleKey(r, self, rng, n)
	}
}

// singleKey routes one point operation through the client replica; a
// stale route bounces off the shard's placement-epoch word — nothing
// applied — and retries against the authoritative placement, exactly the
// serve submitRouted loop.
func (m *mover) singleKey(r Runner, self int, rng *Rand, n uint64) {
	k := m.draw(rng)
	p := rng.Float64()
	o, fenced, bounces := m.kv.routed(r, self, k, m.replica.Load(), pointOp(serviceMixes["mixed"], p, self, k, n))
	m.bounces.Add(bounces)
	if fenced {
		m.fencedSkip.Add(1)
	} else {
		m.routed[o].Add(1)
	}
}

// crossBatch runs one cross-shard batch put against the authoritative
// placement: ordered fenced acquire, apply per participant, release. A
// blocked acquire skips the batch.
func (m *mover) crossBatch(r Runner, self int, rng *Rand, n uint64) {
	live := m.kv.place.Load()
	keys := make([]uint64, m.batchKeys)
	for i := range keys {
		keys[i] = m.draw(rng)
	}
	h, ok := m.kv.acquire(r, self, live.part.Participants(keys), n, n, live.epoch)
	if !ok {
		m.blocked.Add(1)
		return
	}
	m.batches.Add(1)
	m.kv.commit(r, self, h, putOwned(live.part, keys, self, n))
	for _, p := range h.parts {
		m.routed[p].Add(1)
	}
	m.committed.Add(1)
}

// move is one live span move planned from the routed-op load signal. A
// no-op plan is counted and skipped, never installed — the planners'
// caller contract.
func (m *mover) move(r Runner, self int, n uint64) {
	moved, outcome := m.kv.moveSpan(r, self, n, m.migrateBatch, func(live *svcPlace) (svcMove, bool) {
		p := live.part.(*shard.RangePartitioner)
		load := make([]uint64, p.Shards())
		for i := range load {
			load[i] = m.routed[i].Load()
		}
		return m.plan(p, load)
	})
	switch outcome {
	case moveSkipped:
		m.skips.Add(1)
	case moveBlocked:
		m.blocks.Add(1)
	default:
		m.moves.Add(1)
		m.migrated.Add(moved)
	}
}

// metrics returns the counters both twins report, under their shared
// names.
func (m *mover) metrics() map[string]uint64 {
	return map[string]uint64{
		"keys_migrated":   m.migrated.Load(),
		"placement_epoch": m.kv.place.Load().epoch,
		"moved_bounces":   m.bounces.Load(),
		"replica_replans": m.replans.Load(),
		"cross_batches":   m.batches.Load(),
		"cross_committed": m.committed.Load(),
		"batch_blocked":   m.blocked.Load(),
		"fenced_skips":    m.fencedSkip.Load(),
	}
}

// Metrics implements Metered.
func (s *ServiceReshard) Metrics() map[string]uint64 {
	out := s.metrics()
	out["splits_installed"] = s.moves.Load()
	out["splits_skipped"] = s.skips.Load()
	out["splits_blocked"] = s.blocks.Load()
	return out
}

// Verify implements Verifier: every fence free, every key on the shard
// the final placement owns it on, spare stores empty. The replica's
// catch-up (replica_replans) is pinned by the scenario goldens.
func (s *ServiceReshard) Verify(h *tm.Heap) error {
	if err := s.kv.verify(h); err != nil {
		return fmt.Errorf("reshard: %w", err)
	}
	return nil
}
