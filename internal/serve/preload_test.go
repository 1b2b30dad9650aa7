package serve

import (
	"testing"

	proteustm "repro"
	"repro/internal/shard"
)

// TestPreloadLeavesTheSameBytes pins what a preload writes: for either
// partitioner, every shard New preloads holds the same heap, word for word
// and allocation for allocation, as a shard given the same keys through its
// own PolyTM worker in 64-key transactions. The preload's transactions are
// set-up, not served traffic, so a new server's shards count no commits.
func TestPreloadLeavesTheSameBytes(t *testing.T) {
	const preload = 65536
	for _, kind := range []string{shard.KindHash, shard.KindRange} {
		opts := Options{Shards: 2, Partitioner: kind, Workers: 2, Seed: 42, Preload: preload, HeapWords: 1 << 19}
		s := newTestServer(t, opts)
		for i := 0; i < s.Shards(); i++ {
			if c := s.ShardSystem(i).Stats().Commits; c != 0 {
				t.Errorf("%s: shard %d counts %d commits before serving anything", kind, i, c)
			}
		}

		opts.Preload = 0
		ref, err := newServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ref.Close() }) //nolint:errcheck // test teardown
		keys := preloadKeys(ref.part(), preload)
		for i, ss := range ref.fleet() {
			for base := 0; base < len(keys[i]); base += 64 {
				chunk := keys[i][base:min(base+64, len(keys[i]))]
				ss.workers[0].Atomic(func(tx proteustm.Txn) {
					for _, k := range chunk {
						ss.store.Put(tx, 0, k, k)
					}
				})
			}
		}

		for i := 0; i < s.Shards(); i++ {
			got, want := s.ShardSystem(i).Heap(), ref.ShardSystem(i).Heap()
			if got.Digest() != want.Digest() || got.Allocated() != want.Allocated() {
				t.Errorf("%s: shard %d preloaded to digest %#x with %d words allocated; through its worker, %#x with %d",
					kind, i, got.Digest(), got.Allocated(), want.Digest(), want.Allocated())
			}
		}
	}
}
