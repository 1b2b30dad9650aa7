package shard

import (
	"fmt"
	"sort"
)

// Partitioner kinds, as spelled on the `proteusd --partitioner` flag and
// in the /statusz document.
const (
	// KindHash is the consistent-hash Ring: uniform placement, no range
	// locality (a scan's keys scatter across every shard).
	KindHash = "hash"
	// KindRange is the order-preserving RangePartitioner: contiguous key
	// spans per shard, so a scan touches only the shards whose boundary
	// spans intersect it.
	KindRange = "range"
)

// Partitioner is the placement seam of the sharded serving layer: the
// function from keys to shard indexes that internal/serve routes with,
// `proteusbench loadgen` replicates client-side, and the service-range
// scenario A/Bs deterministically. Implementations must be pure functions
// of their construction parameters (two identically-built partitioners
// agree on every key) and safe for concurrent use.
type Partitioner interface {
	// Shards returns the number of shards the partitioner places keys on.
	Shards() int
	// Owner returns the shard index owning key.
	Owner(key uint64) int
	// Participants returns the sorted distinct owners of keys — the shard
	// set a cross-shard operation must fence, in the global
	// lock-acquisition order (ascending shard index).
	Participants(keys []uint64) []int
	// OwnersInRange returns the sorted distinct shard set that can own
	// any key in [lo, hi] — the fence set of an ordered range scan. The
	// result may be conservative (a superset) but never misses an owner;
	// hi < lo yields nil.
	OwnersInRange(lo, hi uint64) []int
	// Kind names the partitioner ("hash" or "range") for flags, reports
	// and the /statusz document.
	Kind() string
}

// NewPartitioner builds the named partitioner kind over n shards. The
// universe parameter only matters to the range kind (see NewRange); hash
// ignores it. The construction is deterministic, so a client holding
// (kind, n, universe) — all three surfaced on /statusz — routes exactly
// like the server.
func NewPartitioner(kind string, n int, universe uint64) (Partitioner, error) {
	switch kind {
	case "", KindHash:
		return New(n), nil
	case KindRange:
		return NewRange(n, universe), nil
	}
	return nil, fmt.Errorf("shard: unknown partitioner kind %q (want %s or %s)", kind, KindHash, KindRange)
}

// distinctOwners collects the sorted distinct owners of keys under owner.
func distinctOwners(n int, owner func(uint64) int, keys []uint64) []int {
	seen := make([]bool, n)
	cnt := 0
	for _, k := range keys {
		if o := owner(k); !seen[o] {
			seen[o] = true
			cnt++
		}
	}
	return collectOwners(seen, cnt)
}

// collectOwners turns a seen-set into the ascending shard list every
// owner-set method returns (the fence-acquisition order).
func collectOwners(seen []bool, cnt int) []int {
	out := make([]int, 0, cnt)
	for s, ok := range seen {
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// RangePartitioner is the order-preserving placement policy: the 64-bit
// key space is cut into contiguous spans by sorted boundary keys, and
// each span belongs to one shard. Ownership is a binary search over the
// boundaries, so contiguous key intervals map to few shards — the
// property that localizes `/kv/range` scans, which hashing destroys.
//
// A RangePartitioner is immutable and safe for concurrent use; Grow and
// the planners return new partitioners rather than mutating.
type RangePartitioner struct {
	n int
	// universe is the practical key range the even pre-split covers (and
	// the weight clip for split decisions); 0 means the full 2^64 space.
	universe uint64
	// starts[i] is the first key of span i (ascending, starts[0] == 0);
	// span i ends where span i+1 begins, the last span runs to 2^64-1.
	starts []uint64
	// owners[i] is the shard owning span i. A freshly built partitioner
	// has one span per shard in shard order; splits give the new shard
	// the upper half of an existing span, so owners is a permutation with
	// repetition after rebalancing.
	owners []int
}

// NewRange builds an order-preserving partitioner for n shards (clamped
// to at least 1) by evenly pre-splitting [0, universe) into n spans:
// shard i owns [i*step, (i+1)*step), and the last shard's span extends
// past the universe to the top of the key space. universe 0 means the
// full 2^64 space. Like the hash ring, construction is a pure function
// of its arguments, so clients replicate placement locally.
//
// Size universe to the working key range of the data (proteusd's
// --key-universe flag): keys at or above it all land on the last span's
// shard, and keys far below it concentrate on the first shards.
func NewRange(n int, universe uint64) *RangePartitioner {
	if n < 1 {
		n = 1
	}
	step := uint64(1 << 63)
	if universe != 0 {
		step = universe / uint64(n)
	} else if n > 1 {
		// Full space: 2^64/n, computed without overflowing uint64.
		step = (^uint64(0))/uint64(n) + 1
	}
	if step == 0 {
		step = 1 // degenerate universe < n: give every shard a sliver
	}
	starts := make([]uint64, n)
	owners := make([]int, n)
	for i := 0; i < n; i++ {
		starts[i] = uint64(i) * step
		owners[i] = i
	}
	// Guard against overflow wrap for huge n*step: starts must ascend.
	for i := 1; i < n; i++ {
		if starts[i] <= starts[i-1] {
			starts[i] = starts[i-1] + 1
		}
	}
	return &RangePartitioner{n: n, universe: universe, starts: starts, owners: owners}
}

// NewRangeFromSpans builds a range partitioner from an explicit boundary
// set: starts must be strictly ascending with starts[0] == 0, owners
// aligns with starts, and every shard index in [0, max(owners)] must own
// at least one span (no unreachable shard). This is the constructor a
// rebalance plan or a fuzzer uses; NewRange covers the even pre-split.
func NewRangeFromSpans(starts []uint64, owners []int, universe uint64) (*RangePartitioner, error) {
	if len(starts) == 0 || len(starts) != len(owners) {
		return nil, fmt.Errorf("shard: %d starts but %d owners", len(starts), len(owners))
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("shard: first span must start at 0, got %d", starts[0])
	}
	n := 0
	for i, o := range owners {
		if i > 0 && starts[i] <= starts[i-1] {
			return nil, fmt.Errorf("shard: span starts not strictly ascending at %d", i)
		}
		if o < 0 {
			return nil, fmt.Errorf("shard: negative owner %d", o)
		}
		if o+1 > n {
			n = o + 1
		}
	}
	seen := make([]bool, n)
	for _, o := range owners {
		seen[o] = true
	}
	for s, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("shard: shard %d owns no span", s)
		}
	}
	return &RangePartitioner{
		n:        n,
		universe: universe,
		starts:   append([]uint64(nil), starts...),
		owners:   append([]int(nil), owners...),
	}, nil
}

// Kind implements Partitioner.
func (p *RangePartitioner) Kind() string { return KindRange }

// Shards implements Partitioner.
func (p *RangePartitioner) Shards() int { return p.n }

// Universe returns the practical key range the partitioner was sized for
// (0 = the full 2^64 space).
func (p *RangePartitioner) Universe() uint64 { return p.universe }

// Spans returns the boundary table as (start, owner) pairs in key order —
// the serializable description of the placement (for status endpoints,
// rebalance planning and tests). The returned slices are copies.
func (p *RangePartitioner) Spans() (starts []uint64, owners []int) {
	return append([]uint64(nil), p.starts...), append([]int(nil), p.owners...)
}

// spanOf returns the index of the span containing key.
func (p *RangePartitioner) spanOf(key uint64) int {
	// First span starting after key, minus one; starts[0]==0 keeps i >= 0.
	return sort.Search(len(p.starts), func(i int) bool { return p.starts[i] > key }) - 1
}

// Owner implements Partitioner: a binary search over the boundary keys.
func (p *RangePartitioner) Owner(key uint64) int { return p.owners[p.spanOf(key)] }

// Participants implements Partitioner.
func (p *RangePartitioner) Participants(keys []uint64) []int {
	return distinctOwners(p.n, p.Owner, keys)
}

// OwnersInRange implements Partitioner: the distinct owners of the spans
// intersecting [lo, hi], in ascending shard order. This is exact — the
// payoff of order preservation: a scan narrower than a span fences one
// shard, no matter how many shards the fleet has.
func (p *RangePartitioner) OwnersInRange(lo, hi uint64) []int {
	if hi < lo {
		return nil
	}
	seen := make([]bool, p.n)
	cnt := 0
	for i, j := p.spanOf(lo), p.spanOf(hi); i <= j; i++ {
		if o := p.owners[i]; !seen[o] {
			seen[o] = true
			cnt++
		}
	}
	return collectOwners(seen, cnt)
}

// spanKeys returns span i's keys as an inclusive interval: hi is 2^64-1
// for the last span.
func (p *RangePartitioner) spanKeys(i int) (lo, hi uint64) {
	hi = ^uint64(0)
	if i+1 < len(p.starts) {
		hi = p.starts[i+1] - 1
	}
	return p.starts[i], hi
}

// clippedWidth is span i's width intersected with the universe — the
// weight split decisions use, so growth subdivides spans that carry real
// keys instead of the astronomically wide (and practically empty) tail
// above the universe.
func (p *RangePartitioner) clippedWidth(i int) uint64 {
	start := p.starts[i]
	var end uint64 // 0 reads as 2^64 via wrap-around subtraction below
	if i+1 < len(p.starts) {
		end = p.starts[i+1]
	}
	if p.universe != 0 {
		if start >= p.universe {
			return 0
		}
		if end == 0 || end > p.universe {
			end = p.universe
		}
	}
	if len(p.starts) == 1 && p.universe == 0 {
		return ^uint64(0) // single full-space span: saturate
	}
	return end - start
}

// split returns a copy with span i cut at its (universe-clipped)
// midpoint, the upper half owned by newOwner. Reports false when the
// span is too narrow to split.
func (p *RangePartitioner) split(i, newOwner int) (*RangePartitioner, bool) {
	w := p.clippedWidth(i)
	if w < 2 {
		return p, false
	}
	mid := p.starts[i] + w/2
	n := p.n
	if newOwner+1 > n {
		n = newOwner + 1
	}
	starts := make([]uint64, 0, len(p.starts)+1)
	owners := make([]int, 0, len(p.owners)+1)
	starts = append(starts, p.starts[:i+1]...)
	owners = append(owners, p.owners[:i+1]...)
	starts = append(starts, mid)
	owners = append(owners, newOwner)
	starts = append(starts, p.starts[i+1:]...)
	owners = append(owners, p.owners[i+1:]...)
	return &RangePartitioner{n: n, universe: p.universe, starts: starts, owners: owners}, true
}

// widest returns the index of the widest universe-clipped span among
// those owned by shard (-1 = any shard), breaking ties toward the lowest
// start key.
func (p *RangePartitioner) widest(shard int) int {
	best, bestW := -1, uint64(0)
	for i := range p.starts {
		if shard >= 0 && p.owners[i] != shard {
			continue
		}
		if w := p.clippedWidth(i); w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// Grow returns the N+1-shard partitioner: the widest universe-clipped
// span is cut at its midpoint and the new shard N takes the upper half.
// Boundary movement is minimal — every key either keeps its owner or
// moves to the new shard, mirroring the hash ring's N→N+1 contract.
func (p *RangePartitioner) Grow() *RangePartitioner {
	i := p.widest(-1)
	if i < 0 {
		return p
	}
	grown, _ := p.split(i, p.n)
	return grown
}
