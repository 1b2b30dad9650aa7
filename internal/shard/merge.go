package shard

// PlanMergeColdest is the shrink counterpart of PlanSplitHeaviest: given
// per-shard load counters (the ops_routed column of /statusz), it plans
// merging the top shard's span into its left-adjacent neighbour — but
// only when the top shard is the coldest, so shrinking never evicts a
// shard that is carrying the load. Ties resolve in the donor's favour
// (an all-idle fleet should shrink), and load entries beyond len(load)
// read as zero. It reports ok=false as an explicit no-op when:
//
//   - the partitioner has fewer than two shards;
//   - some other shard carries strictly less load than the top shard
//     (the donor is not the coldest);
//   - the top shard owns anything other than exactly one span, or that
//     span is the first span (no left-adjacent recipient) — states the
//     NewRange/split evolution never produces, rejected defensively.
//
// The donor is always the top shard, index n-1: that is what lets the
// executor retire it by truncating the fleet slice, so no surviving shard
// is renumbered and in-flight work and recovery records keyed by shard
// index stay valid across the flip. Callers must treat ok=false as "do
// nothing", exactly like the split contract: never install a degenerate
// merge.
func (p *RangePartitioner) PlanMergeColdest(load []uint64) (MovePlan, bool) {
	if p.n < 2 {
		return MovePlan{}, false
	}
	donor := p.n - 1
	loadOf := func(s int) uint64 {
		if s < len(load) {
			return load[s]
		}
		return 0
	}
	donorLoad := loadOf(donor)
	for s := 0; s < donor; s++ {
		if loadOf(s) < donorLoad {
			return MovePlan{}, false
		}
	}
	span := -1
	for i, o := range p.owners {
		if o != donor {
			continue
		}
		if span >= 0 {
			return MovePlan{}, false // donor owns more than one span
		}
		span = i
	}
	if span <= 0 {
		return MovePlan{}, false // no span, or no left-adjacent recipient
	}
	merged, err := p.removeSpan(span)
	if err != nil {
		return MovePlan{}, false
	}
	lo, hi := p.spanKeys(span)
	return MovePlan{Donor: donor, Recipient: p.owners[span-1], MovedLo: lo, MovedHi: hi, Next: merged}, true
}

// removeSpan returns a copy with span i deleted: span i-1 silently
// extends through the removed span's keys, so the neighbour's owner
// inherits them. Only meaningful for i > 0 (the first span has no left
// neighbour to absorb it); validation is delegated to
// NewRangeFromSpans, which rejects any result that leaves a shard
// without a span.
func (p *RangePartitioner) removeSpan(i int) (*RangePartitioner, error) {
	starts := make([]uint64, 0, len(p.starts)-1)
	owners := make([]int, 0, len(p.owners)-1)
	starts = append(append(starts, p.starts[:i]...), p.starts[i+1:]...)
	owners = append(append(owners, p.owners[:i]...), p.owners[i+1:]...)
	return NewRangeFromSpans(starts, owners, p.universe)
}
