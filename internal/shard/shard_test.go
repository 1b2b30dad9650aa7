package shard

import (
	"sort"
	"testing"
)

// TestOwnerInRangeAndDeterministic pins the router's two basic contracts:
// owners are valid shard indexes, and ownership is a pure function of
// (key, shard count).
func TestOwnerInRangeAndDeterministic(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16, 64} {
		a, b := New(n), New(n)
		for k := uint64(0); k < 10000; k++ {
			o := a.Owner(k)
			if o < 0 || o >= n {
				t.Fatalf("n=%d: Owner(%d) = %d out of range", n, k, o)
			}
			if o != b.Owner(k) {
				t.Fatalf("n=%d: two rings disagree on key %d: %d vs %d", n, k, o, b.Owner(k))
			}
		}
	}
}

// TestFullCoverage requires every shard to own a non-trivial share of the
// key space — no shard may be unreachable from the ring, and vnode
// placement must keep the split roughly balanced.
func TestFullCoverage(t *testing.T) {
	const probes = 1 << 16
	for _, n := range []int{2, 4, 8, 16, 64} {
		r := New(n)
		counts := make([]int, n)
		for k := uint64(0); k < probes; k++ {
			counts[r.Owner(k)]++
		}
		fair := probes / n
		for s, c := range counts {
			if c == 0 {
				t.Fatalf("n=%d: shard %d owns no keys", n, s)
			}
			if c < fair/4 || c > fair*4 {
				t.Errorf("n=%d: shard %d owns %d of %d keys (fair share %d) — ring badly unbalanced", n, s, c, probes, fair)
			}
		}
	}
}

// TestMinimalRemapping checks the consistent-hashing property that makes
// the ring worth having over key%N: growing from N to N+1 shards moves
// only the keys the new shard takes over.
func TestMinimalRemapping(t *testing.T) {
	const probes = 1 << 16
	for _, n := range []int{2, 4, 8} {
		old, grown := New(n), New(n+1)
		moved := 0
		for k := uint64(0); k < probes; k++ {
			a, b := old.Owner(k), grown.Owner(k)
			if a != b {
				moved++
				if b != n {
					t.Fatalf("n=%d→%d: key %d moved %d→%d, not to the new shard", n, n+1, k, a, b)
				}
			}
		}
		// The new shard's fair share is probes/(n+1); allow generous slack
		// but reject wholesale remapping (key%N moves ~ (n-1)/n of keys).
		if moved == 0 || moved > probes/2 {
			t.Errorf("n=%d→%d: %d of %d keys moved (fair share ≈ %d)", n, n+1, moved, probes, probes/(n+1))
		}
	}
}

// TestParticipants checks the ordered distinct-owner set used for fence
// acquisition.
func TestParticipants(t *testing.T) {
	r := New(4)
	keys := make([]uint64, 0, 256)
	for k := uint64(0); k < 256; k++ {
		keys = append(keys, k)
	}
	parts := r.Participants(keys)
	if len(parts) != 4 {
		t.Fatalf("256 sequential keys hit %d of 4 shards: %v", len(parts), parts)
	}
	for i, p := range parts {
		if p != i {
			t.Fatalf("participants not sorted/distinct: %v", parts)
		}
	}
	one := r.Participants([]uint64{7, 7, 7})
	if len(one) != 1 || one[0] != r.Owner(7) {
		t.Fatalf("Participants({7,7,7}) = %v", one)
	}
}

// searchOwner is the ring's defining rule, written as the binary search the
// bucket index replaces: the shard of the first point at or after h,
// wrapping to the first point.
func searchOwner(r *Ring, h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// TestBucketedOwnerIsExact checks the bucket index against the binary
// search on a million mixed keys and on every hash where the two could
// part: each point's hash and its neighbours, each bucket's first hash and
// the one before it, and both ends of the ring.
func TestBucketedOwnerIsExact(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		r := New(n)
		if pts := n * DefaultVnodes; len(r.bucket) < pts || len(r.bucket) >= 2*pts {
			t.Fatalf("n=%d: %d buckets for %d points, want the power of two at or above", n, len(r.bucket), pts)
		}
		check := func(h uint64) {
			if got, want := r.ownerOfHash(h), searchOwner(r, h); got != want {
				t.Fatalf("n=%d: hash %#x: bucketed owner %d, binary search %d", n, h, got, want)
			}
		}
		check(0)
		check(^uint64(0))
		for _, p := range r.points {
			check(p.h - 1)
			check(p.h)
			check(p.h + 1)
		}
		for b := range r.bucket {
			start := uint64(b) << r.shift
			check(start - 1)
			check(start)
		}
		for k := uint64(0); k < 1<<20; k++ {
			check(mix(k ^ 0x5DEECE66D))
			if n > 1 && r.Owner(k) != searchOwner(r, mix(k)) {
				t.Fatalf("n=%d: Owner(%d) = %d, binary search %d", n, k, r.Owner(k), searchOwner(r, mix(k)))
			}
		}
	}
}
