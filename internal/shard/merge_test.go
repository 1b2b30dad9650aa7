package shard

import "testing"

// TestPlanMergeColdestInvertsSplit pins the round trip the serve layer
// performs: a PlanSplitHeaviest followed by a PlanMergeColdest of the
// now-cold new shard restores the original boundary table exactly.
func TestPlanMergeColdestInvertsSplit(t *testing.T) {
	p := NewRange(4, 1<<20)
	split, ok := p.PlanSplitHeaviest([]uint64{1, 2, 3, 900})
	if !ok {
		t.Fatal("split plan failed")
	}
	// After the flash crowd passes the new top shard is the coldest.
	merge, ok := split.Next.PlanMergeColdest([]uint64{5, 5, 5, 5, 0})
	if !ok {
		t.Fatal("merge plan failed on cold top shard")
	}
	if merge.Donor != 4 || merge.Recipient != split.Donor {
		t.Fatalf("merge donor/recipient = %d/%d, want 4/%d", merge.Donor, merge.Recipient, split.Donor)
	}
	if merge.MovedLo != split.MovedLo || merge.MovedHi != split.MovedHi {
		t.Fatalf("merge moved [%d,%d], want the split's [%d,%d]",
			merge.MovedLo, merge.MovedHi, split.MovedLo, split.MovedHi)
	}
	ms, mo := merge.Next.Spans()
	ps, po := p.Spans()
	if len(ms) != len(ps) {
		t.Fatalf("merged span count %d, want original %d", len(ms), len(ps))
	}
	for i := range ms {
		if ms[i] != ps[i] || mo[i] != po[i] {
			t.Fatalf("span %d: merged (%d,%d) vs original (%d,%d)", i, ms[i], mo[i], ps[i], po[i])
		}
	}
}

// TestPlanMergeColdestMovedSpan pins ownership across the flip: every
// key in [MovedLo, MovedHi] moves from Donor to Recipient, and keys
// outside the span keep their owner.
func TestPlanMergeColdestMovedSpan(t *testing.T) {
	p := NewRange(3, 3<<16)
	plan, ok := p.PlanMergeColdest(nil) // all-idle fleet: donor is coldest by tie
	if !ok {
		t.Fatal("merge plan failed on idle fleet")
	}
	if plan.Donor != 2 {
		t.Fatalf("donor = %d, want top shard 2", plan.Donor)
	}
	if plan.MovedHi < plan.MovedLo {
		t.Fatalf("inverted moved span [%d, %d]", plan.MovedLo, plan.MovedHi)
	}
	for _, k := range []uint64{plan.MovedLo, plan.MovedHi, plan.MovedLo + (plan.MovedHi-plan.MovedLo)/2} {
		if o := p.Owner(k); o != plan.Donor {
			t.Fatalf("key %d owned by %d pre-merge, want donor %d", k, o, plan.Donor)
		}
		if o := plan.Next.Owner(k); o != plan.Recipient {
			t.Fatalf("key %d owned by %d post-merge, want recipient %d", k, o, plan.Recipient)
		}
	}
	if plan.MovedLo > 0 {
		k := plan.MovedLo - 1
		if plan.Next.Owner(k) != p.Owner(k) {
			t.Fatalf("key %d below moved span changed owner", k)
		}
	}
	if plan.Next.Shards() != p.Shards()-1 {
		t.Fatalf("merged shards = %d, want %d", plan.Next.Shards(), p.Shards()-1)
	}
}

// TestPlanMergeColdestNoOp pins the explicit no-op contract, mirroring
// the split side: single shard, a donor that is not the coldest, and
// span layouts the split evolution never produces all report ok=false.
func TestPlanMergeColdestNoOp(t *testing.T) {
	if _, ok := NewRange(1, 1<<10).PlanMergeColdest(nil); ok {
		t.Fatal("single-shard partitioner produced a merge plan")
	}
	p := NewRange(2, 1<<20)
	// Shard 0 strictly colder than the top shard: donor is not coldest.
	if _, ok := p.PlanMergeColdest([]uint64{0, 5}); ok {
		t.Fatal("hot top shard produced a merge plan")
	}
	// Load entries beyond len(load) read as zero: a short vector giving
	// shard 0 load leaves the top shard coldest.
	if plan, ok := p.PlanMergeColdest([]uint64{7}); !ok || plan.Donor != 1 {
		t.Fatalf("short load vector: plan %+v ok=%v, want donor 1", plan, ok)
	}
	// Ties resolve in the donor's favour: an evenly-loaded fleet shrinks.
	if _, ok := p.PlanMergeColdest([]uint64{5, 5}); !ok {
		t.Fatal("tied load refused to merge")
	}
	// Donor owning two spans is rejected defensively.
	twoSpans, err := NewRangeFromSpans([]uint64{0, 10, 20}, []int{1, 0, 1}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := twoSpans.PlanMergeColdest(nil); ok {
		t.Fatal("multi-span donor produced a merge plan")
	}
	// Donor owning the first span has no left-adjacent recipient.
	firstSpan, err := NewRangeFromSpans([]uint64{0, 10}, []int{1, 0}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := firstSpan.PlanMergeColdest(nil); ok {
		t.Fatal("first-span donor produced a merge plan")
	}
}

// TestShrinkInvertsGrow pins the coldest-merge plan as Grow's inverse on
// the even pre-split, and that a single-shard partitioner gets no plan.
func TestShrinkInvertsGrow(t *testing.T) {
	p := NewRange(3, 3<<20)
	plan, ok := p.Grow().PlanMergeColdest(nil)
	if !ok {
		t.Fatal("no merge plan after Grow")
	}
	bs, bo := plan.Next.Spans()
	ps, po := p.Spans()
	if len(bs) != len(ps) {
		t.Fatalf("span count %d after Grow and merge, want %d", len(bs), len(ps))
	}
	for i := range bs {
		if bs[i] != ps[i] || bo[i] != po[i] {
			t.Fatalf("span %d: (%d,%d) after round trip, want (%d,%d)", i, bs[i], bo[i], ps[i], po[i])
		}
	}
	if _, ok := NewRange(1, 1<<10).PlanMergeColdest(nil); ok {
		t.Fatal("single-shard partitioner produced a merge plan")
	}
}

// TestRingOwnersInRangeEnumCapBoundary pins the exact interval width at
// which OwnersInRange on a hash ring stops enumerating and falls back to
// the conservative all-shards answer: hi-lo == RangeEnumCap-1 (an
// interval of exactly RangeEnumCap keys) still enumerates, hi-lo ==
// RangeEnumCap does not. The ring is built wider than the enumeration
// cap so the two regimes produce observably different owner sets.
func TestRingOwnersInRangeEnumCapBoundary(t *testing.T) {
	const n = RangeEnumCap * 2
	r := New(n)
	exact := r.OwnersInRange(0, RangeEnumCap-1)
	if len(exact) >= n {
		t.Fatalf("enumerated owner set has %d shards — the per-key walk cannot see more than %d keys", len(exact), RangeEnumCap)
	}
	// The enumerated set must be exact: it contains every key's owner.
	seen := make([]bool, n)
	for _, s := range exact {
		seen[s] = true
	}
	for k := uint64(0); k < RangeEnumCap; k += 997 {
		if o := r.Owner(k); !seen[o] {
			t.Fatalf("key %d's owner %d missing from enumerated set", k, o)
		}
	}
	conservative := r.OwnersInRange(0, RangeEnumCap)
	if len(conservative) != n {
		t.Fatalf("one key past the cap returned %d owners, want the all-shards fallback (%d)", len(conservative), n)
	}
	for s, o := range conservative {
		if o != s {
			t.Fatalf("fallback set not [0, n): index %d holds %d", s, o)
		}
	}
}
