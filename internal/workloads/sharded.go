package workloads

import (
	"fmt"
	"sync/atomic"

	"repro/internal/shard"
	"repro/internal/tm"
)

// ServiceSharded is the deterministic twin of proteusd's sharded serving
// layer (internal/serve with Options.Shards > 1): the key space is
// partitioned across per-shard red-black-tree stores by the same
// consistent-hash ring the server routes with, single-key operations run
// against the owning shard's store under that shard's commit fence, and a
// periodic cross-shard batch put exercises the two-phase fence protocol
// (ordered acquire, abort-all on failure, apply+release per shard).
//
// The skew knob is what makes the scenario interesting for per-shard
// tuning: with Skew > 0, keys owned by the lower half of the shards are
// driven with the write-heavy mix and the upper half with the read-heavy
// mix, so per-shard traffic profiles diverge the way the sharded daemon's
// do under `proteusbench loadgen --skew`. All shards share one heap here
// (the harness owns a single pool), so the scenario validates routing,
// fencing and determinism — the per-shard *tuners* are exercised by the
// live daemon, not this workload.
type ServiceSharded struct {
	// Shards is the number of key-space shards.
	Shards int
	// KeyRange bounds the keys.
	KeyRange int
	// InitialSize pre-populates the stores (0 = KeyRange/2).
	InitialSize int
	// Span is the width of a per-shard range scan.
	Span int
	// Skew in [0,1] is the probability an operation uses the
	// shard-correlated mix instead of the uniform "mixed" mix.
	Skew float64
	// BatchEvery makes every Nth operation a cross-shard batch put
	// through the fence protocol (0 disables batches).
	BatchEvery int
	// BatchKeys is the batch width.
	BatchKeys int

	kv  *svcShards
	ops atomic.Uint64
}

// Name implements Workload.
func (s *ServiceSharded) Name() string { return "service-sharded" }

// Setup implements Workload: it builds the kernel store over the
// consistent-hash ring and pre-populates each shard with the keys it owns.
func (s *ServiceSharded) Setup(h *tm.Heap, rng *Rand) error {
	if err := positive("sharded", s.Shards, s.KeyRange, s.BatchKeys); err != nil {
		return err
	}
	kv, err := newSvcShards(h, rng, s.Shards, shard.New(s.Shards), s.KeyRange, s.InitialSize)
	if err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	s.kv = kv
	return nil
}

// mixFor picks the operation mix for a key owned by shard o: under skew,
// the lower half of the shards is write-heavy and the upper half
// read-heavy — the per-shard divergence the sharded daemon's tuners see.
func (s *ServiceSharded) mixFor(o int, rng *Rand) ServiceOpMix {
	if rng.Float64() < s.Skew {
		if o < s.Shards/2 {
			return serviceMixes["write-heavy"]
		}
		return serviceMixes["read-heavy"]
	}
	return serviceMixes["mixed"]
}

// Op implements Workload: either one single-key operation or scan on the
// owning shard (under its fence) or, every BatchEvery-th call, a
// cross-shard batch put through the two-phase fence protocol.
func (s *ServiceSharded) Op(r Runner, self int, rng *Rand) {
	n := s.ops.Add(1)
	if s.BatchEvery > 0 && n%uint64(s.BatchEvery) == 0 {
		crossPut(r, self, rng, s.kv, n, s.BatchKeys, s.KeyRange)
		return
	}
	k := uint64(rng.Intn(s.KeyRange))
	mix := s.mixFor(s.kv.place.Load().part.Owner(k), rng)
	body := scanBody(k, k+uint64(s.Span))
	if p := rng.Float64(); p < mix.Get+mix.Put+mix.Del+mix.CAS {
		body = pointOp(mix, p, self, k, n)
	}
	s.kv.retried(r, self, k, body)
}

// Verify implements Verifier: every key must live in the store of the
// shard that owns it (the routing invariant the consistent-hash ring
// promises) and no fence may be left held.
func (s *ServiceSharded) Verify(h *tm.Heap) error {
	if err := s.kv.verify(h); err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	return nil
}
