package shard

import "testing"

// TestRangeOwnerDeterministicAndCovering pins the basic contracts shared
// with the hash ring: valid owners, pure-function construction, and full
// coverage of the universe with an even pre-split.
func TestRangeOwnerDeterministicAndCovering(t *testing.T) {
	const universe = 1 << 14
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		a, b := NewRange(n, universe), NewRange(n, universe)
		counts := make([]int, n)
		for k := uint64(0); k < universe; k++ {
			o := a.Owner(k)
			if o < 0 || o >= n {
				t.Fatalf("n=%d: Owner(%d) = %d out of range", n, k, o)
			}
			if o != b.Owner(k) {
				t.Fatalf("n=%d: two partitioners disagree on key %d", n, k)
			}
			counts[o]++
		}
		fair := universe / n
		for s, c := range counts {
			if c < fair-n || c > fair+n {
				t.Errorf("n=%d: shard %d owns %d of %d keys (fair %d) — pre-split uneven", n, s, c, universe, fair)
			}
		}
		// Keys above the universe belong to the last pre-split span.
		if o := a.Owner(^uint64(0)); o != n-1 {
			t.Errorf("n=%d: top key owned by %d, want %d", n, o, n-1)
		}
	}
}

// TestRangeOrderPreservation is the property hashing lacks: contiguous
// key intervals map to contiguous shard runs, so a scan narrower than a
// span fences exactly one shard.
func TestRangeOrderPreservation(t *testing.T) {
	const universe = 1 << 12
	p := NewRange(4, universe) // spans of 1024 keys each
	for _, tc := range []struct {
		lo, hi uint64
		want   []int
	}{
		{0, 0, []int{0}},
		{100, 200, []int{0}},
		{1023, 1024, []int{0, 1}},
		{1024, 2047, []int{1}},
		{0, universe - 1, []int{0, 1, 2, 3}},
		{3000, 100000, []int{2, 3}},
		{universe, ^uint64(0), []int{3}},
	} {
		got := p.OwnersInRange(tc.lo, tc.hi)
		if len(got) != len(tc.want) {
			t.Fatalf("OwnersInRange(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("OwnersInRange(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
			}
		}
	}
	if got := p.OwnersInRange(5, 2); got != nil {
		t.Fatalf("inverted range = %v, want nil", got)
	}
	// The hash ring, by contrast, scatters even a narrow interval.
	r := New(4)
	if got := r.OwnersInRange(100, 200); len(got) <= 1 {
		t.Fatalf("hash ring localized a 100-key interval to %v — order preservation for free?", got)
	}
	if got := r.OwnersInRange(7, 7); len(got) != 1 || got[0] != r.Owner(7) {
		t.Fatalf("single-key interval = %v, want exactly its owner %d", got, r.Owner(7))
	}
}

// TestRangeGrowMinimalMovement checks the N→N+1 contract: growth splits
// one span, and every key either keeps its owner or moves to the new
// shard.
func TestRangeGrowMinimalMovement(t *testing.T) {
	const universe = 1 << 12
	for _, n := range []int{1, 2, 4, 7} {
		old := NewRange(n, universe)
		grown := old.Grow()
		if got := grown.Shards(); got != n+1 {
			t.Fatalf("Grow from %d shards yielded %d", n, got)
		}
		moved := 0
		for k := uint64(0); k < universe; k++ {
			a, b := old.Owner(k), grown.Owner(k)
			if a != b {
				moved++
				if b != n {
					t.Fatalf("n=%d→%d: key %d moved %d→%d, not to the new shard", n, n+1, k, a, b)
				}
			}
		}
		if moved == 0 || moved > universe/2 {
			t.Errorf("n=%d→%d: %d of %d keys moved", n, n+1, moved, universe)
		}
	}
}

// TestRangeSplitHeaviest checks the rebalance step: the shard with the
// largest op counter is the one whose span gets cut, the new shard takes
// the upper half of it, and nothing else moves.
func TestRangeSplitHeaviest(t *testing.T) {
	const universe = 1 << 12
	p := NewRange(4, universe)
	load := []uint64{10, 900, 20, 30} // shard 1 is hot
	plan, ok := p.PlanSplitHeaviest(load)
	grown, split := plan.Next, plan.Donor
	if !ok || split != 1 {
		t.Fatalf("PlanSplitHeaviest = (split=%d, ok=%v), want shard 1", split, ok)
	}
	if grown.Shards() != 5 {
		t.Fatalf("grown shards = %d, want 5", grown.Shards())
	}
	for k := uint64(0); k < universe; k++ {
		a, b := p.Owner(k), grown.Owner(k)
		if a == b {
			continue
		}
		if a != 1 || b != 4 {
			t.Fatalf("key %d moved %d→%d; only shard 1's upper half may move, to shard 4", k, a, b)
		}
		// Shard 1's span is [1024, 2048); its upper half starts at 1536.
		if k < 1536 || k >= 2048 {
			t.Fatalf("key %d outside the split half moved", k)
		}
	}
	// Determinism: the same counters produce the same plan.
	plan2, ok2 := p.PlanSplitHeaviest(load)
	again, split2 := plan2.Next, plan2.Donor
	if !ok2 || split2 != split {
		t.Fatalf("rebalance not deterministic: split %d vs %d", split, split2)
	}
	as, ao := again.Spans()
	gs, go_ := grown.Spans()
	for i := range gs {
		if as[i] != gs[i] || ao[i] != go_[i] {
			t.Fatalf("rebalance plans differ at span %d", i)
		}
	}
	if _, ok := p.PlanSplitHeaviest(nil); ok {
		t.Fatal("PlanSplitHeaviest with no counters reported ok")
	}
}

// TestNewRangeFromSpans covers the explicit-boundary constructor's
// validation: the fuzzer and rebalance plans go through it.
func TestNewRangeFromSpans(t *testing.T) {
	if _, err := NewRangeFromSpans([]uint64{0, 100, 200}, []int{0, 1, 0}, 0); err != nil {
		t.Fatalf("valid span set rejected: %v", err)
	}
	for _, bad := range []struct {
		starts []uint64
		owners []int
	}{
		{nil, nil},                          // empty
		{[]uint64{1, 2}, []int{0, 1}},       // does not start at 0
		{[]uint64{0, 5, 5}, []int{0, 1, 2}}, // not strictly ascending
		{[]uint64{0, 5}, []int{0}},          // length mismatch
		{[]uint64{0, 5}, []int{0, 2}},       // shard 1 unreachable
		{[]uint64{0, 5}, []int{0, -1}},      // negative owner
	} {
		if _, err := NewRangeFromSpans(bad.starts, bad.owners, 0); err == nil {
			t.Errorf("NewRangeFromSpans(%v, %v) accepted", bad.starts, bad.owners)
		}
	}
}

// TestNewPartitioner covers the kind dispatcher both seams build from.
func TestNewPartitioner(t *testing.T) {
	h, err := NewPartitioner(KindHash, 4, 0)
	if err != nil || h.Kind() != KindHash || h.Shards() != 4 {
		t.Fatalf("hash: %v %v", h, err)
	}
	r, err := NewPartitioner(KindRange, 4, 1<<14)
	if err != nil || r.Kind() != KindRange || r.Shards() != 4 {
		t.Fatalf("range: %v %v", r, err)
	}
	if d, err := NewPartitioner("", 2, 0); err != nil || d.Kind() != KindHash {
		t.Fatalf("default kind: %v %v", d, err)
	}
	if _, err := NewPartitioner("zorp", 2, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
