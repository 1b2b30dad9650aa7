package shard

import "testing"

func TestEpochedInstallAdvances(t *testing.T) {
	p0 := NewRange(2, 1<<20)
	e := NewEpoched(p0)
	if got, epoch := e.Load(); got != Partitioner(p0) || epoch != 0 {
		t.Fatalf("fresh Epoched = (%v, %d), want (p0, 0)", got, epoch)
	}
	p1 := p0.Grow()
	if got := e.Install(p1); got != 1 {
		t.Fatalf("first Install returned epoch %d, want 1", got)
	}
	got, epoch := e.Load()
	if got != Partitioner(p1) || epoch != 1 {
		t.Fatalf("after install: (%v, %d), want (p1, 1)", got, epoch)
	}
	if e.Epoch() != 1 {
		t.Fatalf("Epoch() = %d, want 1", e.Epoch())
	}
	if got := e.Install(p0); got != 2 {
		t.Fatalf("second Install returned epoch %d, want 2", got)
	}
}

func TestPlanSplitHeaviestMatchesSplitHeaviest(t *testing.T) {
	p := NewRange(3, 3<<20)
	load := []uint64{10, 500, 20}
	plan, ok := p.PlanSplitHeaviest(load)
	if !ok {
		t.Fatal("PlanSplitHeaviest = ok=false on splittable load")
	}
	// Shard 1 is the heaviest: its span [1<<20, 2<<20) is cut at the
	// midpoint and the new shard 3 takes the upper half.
	grown, err := NewRangeFromSpans([]uint64{0, 1 << 20, 3 << 19, 2 << 20}, []int{0, 1, 3, 2}, 3<<20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Donor != 1 {
		t.Fatalf("plan donor %d, want the heaviest shard 1", plan.Donor)
	}
	if plan.Recipient != p.Shards() {
		t.Fatalf("plan.Recipient = %d, want %d", plan.Recipient, p.Shards())
	}
	if plan.Next.Shards() != p.Shards()+1 {
		t.Fatalf("grown shards = %d, want %d", plan.Next.Shards(), p.Shards()+1)
	}
	// The plan's grown placement must agree with the expected span table
	// on every boundary.
	ps, po := plan.Next.Spans()
	gs, go_ := grown.Spans()
	if len(ps) != len(gs) {
		t.Fatalf("span count %d vs %d", len(ps), len(gs))
	}
	for i := range ps {
		if ps[i] != gs[i] || po[i] != go_[i] {
			t.Fatalf("span %d: plan (%d,%d) vs expected (%d,%d)", i, ps[i], po[i], gs[i], go_[i])
		}
	}
}

// TestPlanSplitHeaviestMovedSpan pins the moved interval: every key in
// [MovedLo, MovedHi] is owned by Recipient under Next, and the keys just
// outside it keep their old owner.
func TestPlanSplitHeaviestMovedSpan(t *testing.T) {
	for _, tc := range []struct {
		name     string
		shards   int
		universe uint64
		load     []uint64
	}{
		{"middle-span", 4, 1 << 20, []uint64{1, 900, 2, 3}},
		{"top-span", 2, 1 << 16, []uint64{1, 900}},
		{"single-shard", 1, 1 << 10, []uint64{7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewRange(tc.shards, tc.universe)
			plan, ok := p.PlanSplitHeaviest(tc.load)
			if !ok {
				t.Fatal("ok=false on splittable placement")
			}
			if plan.MovedHi < plan.MovedLo {
				t.Fatalf("inverted moved span [%d, %d]", plan.MovedLo, plan.MovedHi)
			}
			for _, k := range []uint64{plan.MovedLo, plan.MovedHi, plan.MovedLo + (plan.MovedHi-plan.MovedLo)/2} {
				if o := plan.Next.Owner(k); o != plan.Recipient {
					t.Fatalf("key %d in moved span owned by %d, want new shard %d", k, o, plan.Recipient)
				}
				if o := p.Owner(k); o != plan.Donor {
					t.Fatalf("key %d was owned by %d, want donor %d", k, o, plan.Donor)
				}
			}
			if plan.MovedLo > 0 {
				k := plan.MovedLo - 1
				if plan.Next.Owner(k) != p.Owner(k) {
					t.Fatalf("key %d below moved span changed owner", k)
				}
			}
			if plan.MovedHi < ^uint64(0) {
				k := plan.MovedHi + 1
				if plan.Next.Owner(k) != p.Owner(k) {
					t.Fatalf("key %d above moved span changed owner", k)
				}
			}
		})
	}
}

// TestPlanSplitHeaviestNoOp pins the explicit no-op contract: all-zero
// load, empty load, and an un-splittable heaviest span all report
// ok=false instead of yielding a degenerate plan.
func TestPlanSplitHeaviestNoOp(t *testing.T) {
	p := NewRange(2, 1<<20)
	if _, ok := p.PlanSplitHeaviest(nil); ok {
		t.Fatal("empty load produced a plan")
	}
	if _, ok := p.PlanSplitHeaviest([]uint64{0, 0}); ok {
		t.Fatal("all-zero load produced a plan")
	}
	// A heaviest shard whose only span is a single key cannot split.
	narrow, err := NewRangeFromSpans([]uint64{0, 1}, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := narrow.PlanSplitHeaviest([]uint64{900, 1}); ok {
		t.Fatal("un-splittable heaviest span produced a plan")
	}
}
