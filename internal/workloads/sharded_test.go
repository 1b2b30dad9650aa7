package workloads

import (
	"testing"

	"repro/internal/config"
	"repro/internal/polytm"
	"repro/internal/tm"
)

// TestServiceShardedRoutingInvariant checks the serial path too: after a
// deterministic run every key sits on its owning shard (Verify) and the
// per-shard stores are non-trivially populated.
func TestServiceShardedRoutingInvariant(t *testing.T) {
	wl := &ServiceSharded{Shards: 3, KeyRange: 512, BatchEvery: 4, BatchKeys: 5}
	pool := polytm.New(1<<20, 2, config.Config{Alg: config.NOrec, Threads: 2})
	if err := wl.Setup(pool.Heap(), NewRand(3)); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	sd := NewSerialDriver(wl, pool, 2, 3)
	sd.Run(2000)
	if err := wl.Verify(pool.Heap()); err != nil {
		t.Fatalf("post-run invariant: %v", err)
	}
	seq := NewBareRunner(seqAlg(), pool.Heap(), 1)
	total := 0
	for i, set := range wl.kv.sets {
		n := 0
		seq.Atomic(0, func(tx tm.Txn) { n = set.Size(tx) })
		if n == 0 {
			t.Errorf("shard %d store is empty after 2000 ops", i)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("all shard stores empty")
	}
}
