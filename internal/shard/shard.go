// Package shard partitions the service key space across independent
// ProteusTM systems. It provides the pieces the sharded serving layer
// (internal/serve) and the deterministic service scenarios build on:
//
//   - Partitioner, the placement seam: the key→shard function the serve
//     layer routes with. Two implementations exist — Ring (consistent
//     hashing, uniform placement) and RangePartitioner (order-preserving
//     boundary spans, scan locality) — selected by proteusd's
//     --partitioner flag and A/B-able in the scenario registry.
//
//   - Ring, a consistent-hash ring mapping 64-bit keys to shard indexes.
//     Ownership is a pure function of (key, shard count): two rings built
//     for the same N agree on every key, so clients (the loadgen skew
//     planner, the sharded workload) can compute ownership locally without
//     asking the server. Growing the ring from N to N+1 shards remaps only
//     the keys the new shard takes over — every key either keeps its owner
//     or moves to shard N.
//
//   - Linearize, a small-history exhaustive linearizability checker for
//     key-value operation histories recorded against a sharded store.
//     Cross-shard atomicity claims reduce to linearizability of the
//     committed history (Armstrong et al., "Reducing Opacity to
//     Linearizability"), which is what the serve-layer correctness battery
//     checks.
//
// The package is dependency-free on purpose: internal/serve,
// internal/workloads and cmd/proteusbench all import it, and it must never
// import them back.
package shard

import (
	"math/bits"
	"sort"
)

// DefaultVnodes is the number of virtual nodes each shard places on the
// ring. More vnodes smooth the key distribution across shards at the cost
// of a larger (still tiny) sorted point table.
const DefaultVnodes = 64

// point is one virtual node: a position on the 64-bit hash ring owned by a
// shard.
type point struct {
	h     uint64
	shard int
}

// Ring is a consistent-hash ring partitioning the 64-bit key space across
// n shards. The zero value is unusable; build one with New. A Ring is
// immutable and safe for concurrent use.
type Ring struct {
	n      int
	points []point // ascending by hash
	// walk is points followed by a sentinel, the hash 2^64-1 owned by the
	// first point's shard: where the ring wraps, and where a walk stops.
	walk []point
	// bucket[b] is the index of the first point at or after the start of
	// hash-prefix bucket b. There are as many buckets as the power of two
	// at or above the point count; the top bits of a hash name its
	// bucket, and shift is 64 minus their number.
	bucket []int32
	shift  uint
}

// mix is the splitmix64 finalizer — the same avalanche-quality mixer the
// workload RNG uses, applied here to both vnode labels and keys so ring
// positions are uniform even for dense small integers.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// New builds a ring for n shards (clamped to at least 1) with
// DefaultVnodes virtual nodes per shard. Construction is deterministic:
// New(n) always yields the same ownership function.
func New(n int) *Ring {
	if n < 1 {
		n = 1
	}
	pts := make([]point, 0, n*DefaultVnodes+1)
	for s := 0; s < n; s++ {
		for v := 0; v < DefaultVnodes; v++ {
			// The vnode label packs (shard, replica); mixing twice keeps
			// consecutive labels far apart on the ring.
			h := mix(mix(uint64(s)<<32 | uint64(v)))
			pts = append(pts, point{h: h, shard: s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		// Deterministic tie-break: hash collisions between vnodes are
		// astronomically unlikely but must not make ownership ambiguous.
		return pts[i].shard < pts[j].shard
	})
	width := 0
	for 1<<width < len(pts) {
		width++
	}
	r := &Ring{n: n, points: pts, bucket: make([]int32, 1<<width), shift: uint(64 - width)}
	// One merge pass: both the bucket starts and the points ascend.
	i := 0
	for b := range r.bucket {
		start := uint64(b) << r.shift
		for i < len(pts) && pts[i].h < start {
			i++
		}
		r.bucket[b] = int32(i)
	}
	r.walk = append(pts, point{h: ^uint64(0), shard: pts[0].shard})
	return r
}

// Shards returns the number of shards the ring was built for.
func (r *Ring) Shards() int { return r.n }

// Owner returns the shard index owning key: the shard of the first vnode
// at or after the key's ring position, wrapping past the top of the ring.
func (r *Ring) Owner(key uint64) int {
	if r.n == 1 {
		return 0
	}
	return r.ownerOfHash(mix(key))
}

// ownerOfHash returns the shard of the first point with point.h >= h,
// wrapping to the first point. The walk starts at the first point of h's
// bucket, which is at or before the answer, and steps over that bucket's
// points below h: at most one on average, as there are at least as many
// buckets as points. The first two steps add the borrow of a subtraction
// instead of branching on a comparison that goes either way.
func (r *Ring) ownerOfHash(h uint64) int {
	i := int(r.bucket[h>>r.shift])
	_, below := bits.Sub64(r.walk[i].h, h, 0)
	i += int(below)
	_, below = bits.Sub64(r.walk[i].h, h, 0)
	i += int(below)
	for r.walk[i].h < h {
		i++
	}
	return r.walk[i].shard
}

// Participants returns the sorted distinct owners of keys — the shard set
// a cross-shard operation must fence, in the global lock-acquisition
// order (ascending shard index).
func (r *Ring) Participants(keys []uint64) []int {
	return distinctOwners(r.n, r.Owner, keys)
}

// Kind implements Partitioner.
func (r *Ring) Kind() string { return KindHash }

// RangeEnumCap bounds the per-key enumeration OwnersInRange performs on
// a hash ring before giving up and returning every shard. It comfortably
// covers the serve layer's clamped scan spans (MaxScanSpan defaults to
// 4096), and the walk short-circuits as soon as every shard has appeared
// — which uniform hashing makes happen within a few dozen keys. The
// constant is exported so callers (the serve layer's range path) can
// detect when a hash-ring owner set is the conservative all-shards
// fallback rather than an exact enumeration and count the over-fencing.
const RangeEnumCap = 1 << 13

// OwnersInRange implements Partitioner. Hashing destroys range locality,
// so the owner set of an ordered interval is computed by enumerating the
// possible keys in [lo, hi]; intervals wider than RangeEnumCap
// conservatively report every shard. The result is exact for the narrow
// scans where it matters (it is what lets a single-key /kv/range skip
// the cross-shard fence protocol entirely) and a superset otherwise.
func (r *Ring) OwnersInRange(lo, hi uint64) []int {
	if hi < lo {
		return nil
	}
	if r.n == 1 {
		return []int{0}
	}
	if hi-lo >= RangeEnumCap {
		out := make([]int, r.n)
		for s := range out {
			out[s] = s
		}
		return out
	}
	seen := make([]bool, r.n)
	cnt := 0
	for k := lo; ; k++ {
		if o := r.Owner(k); !seen[o] {
			seen[o] = true
			cnt++
		}
		if cnt == r.n || k == hi {
			break
		}
	}
	return collectOwners(seen, cnt)
}
