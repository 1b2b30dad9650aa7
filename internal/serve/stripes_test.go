package serve

import (
	"math/rand"
	"testing"

	"repro/internal/htm"
	"repro/internal/tm"
)

// TestStoreStripesPerOperation measures, with tm.Stats.Stripes, how many
// distinct ownership stripes one store operation touches under the simulated
// HTM — the footprint every one of them pays a read mark or a writer claim
// for. The numbers are docs/performance.md's stripes-per-operation table
// (`go test -run TestStoreStripesPerOperation -v ./internal/serve`); the
// bounds only catch a layout change that doubles a footprint.
func TestStoreStripesPerOperation(t *testing.T) {
	const keys = 1 << 16 // one benchmark shard's preload
	h := tm.NewHeap(1<<21, 1)
	st, err := NewStore(h)
	if err != nil {
		t.Fatal(err)
	}
	alg := &htm.HTM{CM: htm.NewCM(8, htm.PolicyGiveUp)}
	c := tm.NewCtx(0, h)
	rng := rand.New(rand.NewSource(1))
	for _, k := range rng.Perm(keys) {
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
		{name: "get", n: 4096, max: 40, op: func(tx tm.Txn, i int) {
			k := uint64(rng.Intn(keys))
			guard(tx, k)
			if v, ok := st.Get(tx, k); !ok || v != k {
				t.Errorf("get %d = %d %v", k, v, ok)
			}
		}},
		{name: "put (overwrite)", n: 4096, max: 40, op: func(tx tm.Txn, i int) {
			k := uint64(rng.Intn(keys))
			guard(tx, k)
			st.Put(tx, 0, k, k)
		}},
		{name: "put (insert)", n: 4096, max: 60, op: func(tx tm.Txn, i int) {
			k := uint64(keys + i)
			guard(tx, k)
			st.Put(tx, 0, k, k)
		}},
		{name: "range256", n: 512, max: 600, op: func(tx tm.Txn, i int) {
			lo := uint64(rng.Intn(keys - 256))
			if st.PlacementStale(tx, 0) || st.FencedAny(tx) {
				t.Error("idle store reports a stale placement or a fence")
			}
			if n, _ := st.Range(tx, lo, lo+255); n != 256 {
				t.Errorf("range [%d,%d] holds %d keys", lo, lo+255, n)
			}
		}},
		{name: "fence acquire, release", n: 256, max: 4, op: func(tx tm.Txn, i int) {
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
			t.Errorf("%s: %d aborts, %d fallback runs in a single-threaded run", row.name, d.Aborts, d.FallbackRuns)
		}
		per := float64(d.Stripes) / float64(d.Commits)
		t.Logf("%-22s %7.1f stripes/op (%d transactions)", row.name, per, d.Commits)
		if per < 1 || per > row.max {
			t.Errorf("%s touches %.1f stripes per operation, want 1..%.0f", row.name, per, row.max)
		}
	}
}
