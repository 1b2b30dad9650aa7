package scenario

import (
	"fmt"
	"sync/atomic"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// ServiceRange is the partitioner A/B workload: the deterministic twin
// of proteusd's `--partitioner={hash,range}` choice under a scan-heavy
// mix. The operation stream — which keys, which ops, which scan spans —
// is a pure function of the seed and deliberately independent of the
// partitioner, so running the scenario once with Partitioner "hash" and
// once with "range" replays the identical request sequence against the
// two placement policies. What differs is routing: every scan fences the
// shards the active partitioner maps its interval onto, so the recorded
// fence counts and scan-locality metrics (Metrics) isolate the placement
// decision the way ProteusTM's Utility Matrix isolates the TM
// configuration.
//
// Like ServiceSharded, all shards share one heap here: the scenario
// validates routing, fencing, determinism and the fence-count ordering —
// the per-shard tuners are exercised by the live daemon.
type ServiceRange struct {
	// Partitioner is the placement policy: shard.KindHash or
	// shard.KindRange.
	Partitioner string
	// Shards is the number of key-space shards.
	Shards int
	// KeyRange bounds the keys and sizes the range partitioner's
	// universe.
	KeyRange int
	// InitialSize pre-populates the stores (0 = KeyRange/2).
	InitialSize int
	// Span is the width of a range scan.
	Span int
	// Mix is the operation mix name.
	Mix string
	// BatchEvery makes every Nth operation a cross-shard batch put
	// through the fence protocol — the writes the scans race against
	// (0 disables).
	BatchEvery int
	// BatchKeys is the batch width.
	BatchKeys int

	kv  *svcShards
	ops atomic.Uint64
	mix workloads.ServiceOpMix

	// Scan-locality counters (see Metrics).
	scanTotal, scanLocal, scanCross atomic.Uint64
	scanFencedShards, crossBatches  atomic.Uint64
}

// Name implements workloads.Workload.
func (s *ServiceRange) Name() string { return "service-range" }

// Setup implements workloads.Workload: it builds the partitioner and the kernel
// store, and pre-populates each shard with the keys it owns. The
// pre-population key stream is partitioner-independent; only placement
// differs.
func (s *ServiceRange) Setup(h *tm.Heap, rng *workloads.Rand) error {
	var err error
	s.kv, s.mix, err = newPartitioned("service-range", h, rng, s.Partitioner, s.Mix, s.Shards, s.KeyRange, s.InitialSize, s.BatchKeys)
	return err
}

// newPartitioned is the Setup shared by the partitioner A/B twins: the
// named mix, normalized, and the kernel store over the named partitioner.
func newPartitioned(twin string, h *tm.Heap, rng *workloads.Rand, kind, mixName string, shards, keyRange, initial, batchKeys int) (*svcShards, workloads.ServiceOpMix, error) {
	if err := positive(twin, shards, keyRange, batchKeys); err != nil {
		return nil, workloads.ServiceOpMix{}, err
	}
	mix, err := workloads.ServiceMixByName(mixName)
	if err != nil {
		return nil, mix, fmt.Errorf("%s: %w", twin, err)
	}
	part, err := shard.NewPartitioner(kind, shards, uint64(keyRange))
	if err != nil {
		return nil, mix, fmt.Errorf("%s: %w", twin, err)
	}
	kv, err := newSvcShards(h, rng, shards, part, keyRange, initial)
	if err != nil {
		return nil, mix, fmt.Errorf("%s: %w", twin, err)
	}
	return kv, mix.Normalize(), nil
}

// Metrics implements workloads.Metered: the scan-locality and fence observables
// the partitioner A/B compares. scan_fenced_shards totals the shards
// fenced by multi-shard scans — the number the range partitioner must
// hold strictly below hashing for the scan-heavy mix.
func (s *ServiceRange) Metrics() map[string]uint64 {
	return map[string]uint64{
		"scan_total":         s.scanTotal.Load(),
		"scan_single_shard":  s.scanLocal.Load(),
		"scan_multi_shard":   s.scanCross.Load(),
		"scan_fenced_shards": s.scanFencedShards.Load(),
		"cross_batches":      s.crossBatches.Load(),
	}
}

// Op implements workloads.Workload: one service request drawn from the fixed mix.
// Every rng draw happens before any partitioner-dependent branching, so
// the operation stream is identical across partitioners.
func (s *ServiceRange) Op(r workloads.Runner, self int, rng *workloads.Rand) {
	n := s.ops.Add(1)
	if s.BatchEvery > 0 && n%uint64(s.BatchEvery) == 0 {
		if crossPut(r, self, rng, s.kv, n, s.BatchKeys, s.KeyRange) {
			s.crossBatches.Add(1)
		}
		return
	}
	k := uint64(rng.Intn(s.KeyRange))
	if p := rng.Float64(); p < s.mix.Get+s.mix.Put+s.mix.Del+s.mix.CAS {
		s.kv.retried(r, self, pointOp(s.mix, p, self, k, n))
		return
	}
	parts := scan(r, self, s.kv, n, k, k+uint64(s.Span))
	s.scanTotal.Add(1)
	if len(parts) == 1 {
		s.scanLocal.Add(1)
		return
	}
	s.scanCross.Add(1)
	s.scanFencedShards.Add(uint64(len(parts)))
}

// scan runs one range scan [lo, hi] the way serve's /kv/range does: a
// plain fenced shard transaction when the partitioner localizes the
// interval to one shard, the cross-shard commit (acquire every owner in
// order, scan and release each) otherwise. It returns the owner set.
func scan(r workloads.Runner, self int, kv *svcShards, n, lo, hi uint64) []int {
	parts := kv.place.Load().part.OwnersInRange(lo, hi)
	op := scanOp(lo, hi)
	if len(parts) == 1 {
		kv.retried(r, self, op)
	} else {
		kv.crossRetry(r, self, parts, wholeShard, n, func(tx tm.Txn, st *serve.Store, _ int) { op.body(tx, st) })
	}
	return parts
}

// crossPut draws a batch of keys and puts n at each through the
// cross-shard commit, reporting whether it committed.
func crossPut(r workloads.Runner, self int, rng *workloads.Rand, kv *svcShards, n uint64, batchKeys, keyRange int) bool {
	keys := make([]uint64, batchKeys)
	for i := range keys {
		keys[i] = uint64(rng.Intn(keyRange))
	}
	m := mput{part: kv.place.Load().part, keys: keys, self: self, val: n}
	return kv.crossRetry(r, self, m.part.Participants(keys), m.sig, n, m.apply)
}

// Verify implements workloads.Verifier: every key must live in the store of the
// shard the active partitioner owns it with, and no fence may be left
// held.
func (s *ServiceRange) Verify(h *tm.Heap) error {
	if err := s.kv.verify(h); err != nil {
		return fmt.Errorf("service-range: %w", err)
	}
	return nil
}
