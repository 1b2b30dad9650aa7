package scenario

import (
	"fmt"

	"repro/internal/shard"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// ServiceMerge is the deterministic twin of proteusd's live merge (the
// shrink direction of internal/serve POST /admin/reshard): a
// range-partitioned store whose traffic deliberately abandons the high
// key spans, so PlanMergeColdest keeps retiring the top shard — fenced
// span copy into the live left-adjacent recipient, an epoch-stamped
// placement flip one shard smaller, then the donor's retirement — while
// clients keep routing through a stale placement replica refreshed only
// on a fixed cadence. A probe stream aimed at the second-highest span
// keeps touching keys the merges move, so stale-routed operations bounce
// off the retired donor's placement-epoch word and re-route, pinning the
// shrink side of the stale-replica bugfix family: the replica rebuild
// must handle a placement with fewer spans than it cached, every bounce
// is counted, and Verify sweeps every key onto the shard the final
// placement owns it on and proves the retired stores are empty.
//
// Time is operation count, not wall clock, exactly like ServiceReshard:
// merges fire at fixed operation indices (every MergeEvery-th op, down
// to MinShards), the replica refreshes at fixed indices, and fence
// heartbeats are stamped with operation numbers — so a fixed seed merges
// the same spans at the same operations every run, the property the
// byte-pinned service-merge golden leans on. The live daemon's merge
// (wall-clock automerge, HTTP admin surface, real goroutines, crash
// rollback) is exercised by the serve tests and the merge e2e job.
type ServiceMerge struct {
	// Shards is the initial shard count.
	Shards int
	// MinShards is the shard-count floor; each merge shrinks the fleet
	// by one until it is reached.
	MinShards int
	// KeyRange bounds the keys and is the range partitioner's universe.
	KeyRange int
	// InitialSize pre-populates the stores uniformly over the whole key
	// range (0 = KeyRange/2) — so the high spans hold real keys for the
	// merges to migrate even though traffic abandons them.
	InitialSize int
	// HotTenth is the per-mille probability that an operation draws its
	// key from the hot span [0, KeyRange/8); the rest of the non-probe
	// traffic is uniform over the lower half [0, KeyRange/2). The top
	// shard therefore carries strictly less routed load than every
	// survivor and PlanMergeColdest keeps electing it.
	HotTenth int
	// ProbeTenth is the per-mille probability that an operation probes
	// the window [KeyRange/2, 3*KeyRange/4) — the spans the merges move.
	// Probes issued between a flip and the next replica refresh are the
	// ops that bounce.
	ProbeTenth int
	// MergeEvery is the merge cadence in operations: every MergeEvery-th
	// operation attempts one plan-and-migrate step.
	MergeEvery int
	// RefreshEvery is the client placement-replica refresh cadence in
	// operations.
	RefreshEvery int
	// MigrateBatch is the fenced copy/delete batch width in keys.
	MigrateBatch int
	// CrossEvery makes every CrossEvery-th operation a cross-shard batch
	// put, showing the merge composes with the 2PC fences.
	CrossEvery int
	// BatchKeys is the cross-shard batch width.
	BatchKeys int

	mover
}

// Name implements workloads.Workload.
func (s *ServiceMerge) Name() string { return "service-merge" }

// Setup implements workloads.Workload: one store per initial shard; a retired
// donor's store stays allocated but empty.
func (s *ServiceMerge) Setup(h *tm.Heap, rng *workloads.Rand) error {
	s.mover = mover{moveEvery: s.MergeEvery, refreshEvery: s.RefreshEvery, migrateBatch: s.MigrateBatch,
		crossEvery: s.CrossEvery, batchKeys: s.BatchKeys, draw: s.key,
		plan: func(p *shard.RangePartitioner, load []uint64) (shard.MovePlan, bool) {
			if p.Shards() <= s.MinShards {
				return shard.MovePlan{}, false
			}
			return p.PlanMergeColdest(load)
		}}
	return s.setup("merge", h, rng, s.Shards, s.Shards, s.KeyRange, s.InitialSize)
}

// key draws a key: hot low span, a probe into the merge-moved window, or
// uniform over the lower half — never the top quarter, so the top shard
// stays the strict coldest and every scheduled merge elects it.
func (s *ServiceMerge) key(rng *workloads.Rand) uint64 {
	p := rng.Intn(1000)
	if p < s.HotTenth {
		return uint64(rng.Intn(s.KeyRange / 8))
	}
	if p < s.HotTenth+s.ProbeTenth {
		return uint64(s.KeyRange/2 + rng.Intn(s.KeyRange/4))
	}
	return uint64(rng.Intn(s.KeyRange / 2))
}

// Metrics implements workloads.Metered. Every installed merge retires one shard.
func (s *ServiceMerge) Metrics() map[string]uint64 {
	out := s.metrics()
	out["merges_installed"] = s.moves.Load()
	out["merges_skipped"] = s.skips.Load()
	out["merges_blocked"] = s.blocks.Load()
	out["shards_retired"] = s.moves.Load()
	out["shards_final"] = uint64(s.kv.place.Load().part.Shards())
	return out
}

// Verify implements workloads.Verifier: every fence free, every key on the shard
// the final placement owns it on, and every retired store empty — a key
// left on a retired shard is exactly the lost-key bug the merge protocol
// exists to prevent.
func (s *ServiceMerge) Verify(h *tm.Heap) error {
	if err := s.kv.verify(h); err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	return nil
}
