package serve

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/htm"
	"repro/internal/tm"
)

// TestStoreStripesPerOperation measures, with tm.Stats.Stripes, how many
// distinct ownership stripes one store operation touches under the simulated
// HTM — the footprint every one of them pays a read mark or a writer claim
// for. The numbers are docs/performance.md's stripes-per-operation table
// (`go test -run TestStoreStripesPerOperation -v ./internal/serve`), once for
// a store preloaded in random order and once for an ascending preload, which
// is what a server's preload and the benchmark's shards build. The bounds sit
// a little above the B+-tree's numbers, so a layout regression fails.
func TestStoreStripesPerOperation(t *testing.T) {
	const keys = 1 << 16 // one benchmark shard's preload
	for _, order := range []string{"random", "ascending"} {
		h := tm.NewHeap(1<<21, 1)
		st, err := NewStore(h)
		if err != nil {
			t.Fatal(err)
		}
		alg := &htm.HTM{CM: htm.NewCM(8, htm.PolicyGiveUp)}
		c := tm.NewCtx(0, h)
		rng := rand.New(rand.NewSource(1))
		preload := rng.Perm(keys)
		if order == "ascending" {
			slices.Sort(preload)
		}
		for _, k := range preload {
			tm.Run(alg, c, func(tx tm.Txn) { st.Put(tx, 0, uint64(k), uint64(k)) })
		}

		// What applyOp reads before every keyed operation on a sharded server.
		guard := func(tx tm.Txn, key uint64) {
			if st.PlacementStale(tx, 0) || st.FencedKey(tx, key) {
				t.Error("idle store reports a stale placement or a fence")
			}
		}
		var hold FenceHold
		for _, row := range []struct {
			name string
			n    int
			max  float64
			op   func(tx tm.Txn, i int)
		}{
			{name: "get", n: 4096, max: 16, op: func(tx tm.Txn, i int) {
				k := uint64(rng.Intn(keys))
				guard(tx, k)
				if v, ok := st.Get(tx, k); !ok || v != k {
					t.Errorf("get %d = %d %v", k, v, ok)
				}
			}},
			{name: "put (overwrite)", n: 4096, max: 16, op: func(tx tm.Txn, i int) {
				k := uint64(rng.Intn(keys))
				guard(tx, k)
				st.Put(tx, 0, k, k)
			}},
			{name: "put (insert)", n: 4096, max: 20, op: func(tx tm.Txn, i int) {
				k := uint64(keys + i)
				guard(tx, k)
				st.Put(tx, 0, k, k)
			}},
			{name: "range256", n: 512, max: 128, op: func(tx tm.Txn, i int) {
				lo := uint64(rng.Intn(keys - 256))
				if st.PlacementStale(tx, 0) || st.FencedAny(tx) {
					t.Error("idle store reports a stale placement or a fence")
				}
				if n, _ := st.Range(tx, lo, lo+255); n != 256 {
					t.Errorf("range [%d,%d] holds %d keys", lo, lo+255, n)
				}
			}},
			{name: "fence acquire, release", n: 256, max: 1, op: func(tx tm.Txn, i int) {
				if i%2 == 1 {
					st.ReleaseFence(tx, hold)
					return
				}
				var ok bool
				if hold, ok = st.AcquireFence(tx, uint64(i+1), 1, KeyFenceSig([]uint64{1, 2, 3, 4})); !ok {
					t.Error("acquire on an idle table failed")
				}
			}},
		} {
			before := c.Stats
			for i := 0; i < row.n; i++ {
				tm.Run(alg, c, func(tx tm.Txn) { row.op(tx, i) })
			}
			d := c.Stats.Sub(before)
			if d.Aborts != 0 || d.FallbackRuns != 0 {
				t.Errorf("%s, %s preload: %d aborts, %d fallback runs in a single-threaded run", row.name, order, d.Aborts, d.FallbackRuns)
			}
			per := float64(d.Stripes) / float64(d.Commits)
			t.Logf("%-9s %-22s %7.1f stripes/op (%d transactions)", order, row.name, per, d.Commits)
			if per < 1 || per > row.max {
				t.Errorf("%s, %s preload: %.1f stripes per operation, want 1..%.0f", row.name, order, per, row.max)
			}
		}
	}
}

// TestStoreAbortShareTwoSlots runs the kv-multi mix's store operations — get
// 30, put 10, four puts 25, four gets 20, a 256-key range 15, each behind the
// guard applyOp runs — from two slots of the simulated HTM on one store of
// 65 536 ascending keys, and reports the share of attempts that aborted. Each
// slot writes only its own parity of keys, so every abort is a conflict on
// shared layout (a stripe, a node), not on a key. The number is recorded in
// docs/performance.md, not gated; the test checks only that every write
// landed.
func TestStoreAbortShareTwoSlots(t *testing.T) {
	const keys, ops = 1 << 16, 10000
	h := tm.NewHeap(1<<21, 2)
	st, err := NewStore(h)
	if err != nil {
		t.Fatal(err)
	}
	alg := &htm.HTM{CM: htm.NewCM(8, htm.PolicyGiveUp)}
	ctxs := [2]*tm.Ctx{tm.NewCtx(0, h), tm.NewCtx(1, h)}
	for k := uint64(0); k < keys; k++ {
		tm.Run(alg, ctxs[0], func(tx tm.Txn) { st.Put(tx, 0, k, k) })
	}
	before := [2]tm.Stats{ctxs[0].Stats, ctxs[1].Stats}
	wrote := [2]map[uint64]uint64{{}, {}}
	var wg sync.WaitGroup
	for g := range ctxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, rng := ctxs[g], rand.New(rand.NewSource(int64(g+1)))
			own := func() uint64 { return uint64(rng.Intn(keys/2)*2 + g) }
			guard := func(tx tm.Txn, key uint64) { _ = st.PlacementStale(tx, 0) || st.FencedKey(tx, key) }
			var batch [4]uint64
			for i := 0; i < ops; i++ {
				switch roll := rng.Intn(100); {
				case roll < 30:
					k := uint64(rng.Intn(keys))
					tm.Run(alg, c, func(tx tm.Txn) { guard(tx, k); st.Get(tx, k) })
				case roll < 40:
					k := own()
					tm.Run(alg, c, func(tx tm.Txn) { guard(tx, k); st.Put(tx, g, k, uint64(i)) })
					wrote[g][k] = uint64(i)
				case roll < 65:
					for j := range batch {
						batch[j] = own()
					}
					tm.Run(alg, c, func(tx tm.Txn) {
						for _, k := range batch {
							guard(tx, k)
							st.Put(tx, g, k, uint64(i))
						}
					})
					for _, k := range batch {
						wrote[g][k] = uint64(i)
					}
				case roll < 85:
					for j := range batch {
						batch[j] = uint64(rng.Intn(keys))
					}
					tm.Run(alg, c, func(tx tm.Txn) {
						for _, k := range batch {
							guard(tx, k)
							st.Get(tx, k)
						}
					})
				default:
					lo := uint64(rng.Intn(keys - 256))
					tm.Run(alg, c, func(tx tm.Txn) { _ = st.FencedAny(tx); st.Range(tx, lo, lo+255) })
				}
			}
		}()
	}
	wg.Wait()
	var d tm.Stats
	for g, c := range ctxs {
		d.Add(c.Stats.Sub(before[g]))
	}
	t.Logf("two HTM slots, %d operations: abort share %.4f (%d aborts: %d conflict, %d capacity; %d fallback runs)",
		d.Commits, float64(d.Aborts)/float64(d.Aborts+d.Commits), d.Aborts, d.ConflictAborts, d.CapacityAborts, d.FallbackRuns)
	for _, w := range wrote {
		for k, want := range w {
			var v uint64
			tm.Run(alg, ctxs[0], func(tx tm.Txn) { v, _ = st.Get(tx, k) })
			if v != want {
				t.Fatalf("key %d holds %d, its last write was %d", k, v, want)
			}
		}
	}
}
