// Package serve implements proteusd's serving layer: one or more
// transactional heaps exposed as a concurrent key-value / data-structure
// service over HTTP+JSON, executed as ProteusTM atomic blocks on pools of
// bound worker slots behind bounded lines of waiting requests, with a /statusz
// endpoint surfacing each shard's auto-tuner timeline, installed
// configuration, abort rates and serving metrics plus a fleet rollup.
//
// With Options.Shards > 1 the key space is partitioned across independent
// proteustm.System instances by a consistent-hash ring (internal/shard);
// each shard carries its own monitor and tuner, single-key operations
// route to the owning shard, and multi-key operations (mput, mget, range)
// commit atomically through a fence-based two-phase protocol (see
// cross.go and docs/sharding.md).
//
// The package is the repo's first long-running consumer of the online
// adaptation loop (§6.4 of the paper): client traffic is the workload, the
// CUSUM monitor watches the commit-rate KPI, and a traffic phase shift
// (read-heavy → write-heavy → scan, see `proteusbench loadgen`) triggers a
// live reoptimization while requests keep flowing. Reconfiguration safety
// relies on the graceful-drain hook (proteustm.System.OnReconfigure): when
// the incoming configuration disables worker slots, in-flight requests on
// those slots are drained before the slots park, so no request is ever
// stranded on a gated thread.
package serve

import (
	"fmt"

	"repro/internal/tm"
	"repro/internal/workloads"
)

// Deque node layout: value, prev, next. The next word doubles as the node
// pool's free-list link.
const (
	dqVal = iota
	dqPrev
	dqNext
	dqNodeWords
)

// Store is the data plane of the service: a sorted key-value map plus a
// doubly-linked deque, both living in the transactional heap, behind the
// shard's fence table and placement epoch. The map is a B+-tree laid out
// along the ownership stripes (btree.go), because a transaction pays per
// stripe, not per node: on a 65 536-key shard a get touches 12-13 stripes
// and a 256-key range 81-109 (TestStoreStripesPerOperation). Every method
// runs inside the caller's transaction; the Server invokes each request as
// one atomic block on its worker slot, whose index self names the deque's
// free list (the map needs none: it never frees a node).
type Store struct {
	kv *btree

	pool  *workloads.NodePool
	lhead tm.Addr // heap word holding the deque head node address
	ltail tm.Addr // heap word holding the deque tail node address
	llen  tm.Addr // heap word holding the deque length

	// fences is the shard's cross-shard commit fence: a table of
	// FenceSlots entries of fenceSlotWords words each — holder token,
	// epoch, heartbeat, and a 64-bit signature of what the hold covers —
	// behind a header (see NewStore for the layout): fenceOcc, the number
	// of held entries, so the dominant unfenced case costs a local
	// operation a single load, and fenceEpoch. Every data operation on a
	// sharded server reads the
	// table inside its own transaction, so the TM serializes local
	// operations against fence acquisition and release (see
	// docs/sharding.md).
	//
	// fenceEpoch increments on every acquisition and never resets: a
	// (token, epoch) pair names one specific hold, so a release presented
	// with a superseded epoch — a slow coordinator racing the failure
	// detector's recovery, or a second recovery of the same orphan — is a
	// provable no-op. An entry's heartbeat is stamped (unix nanoseconds)
	// at acquisition and re-stamped by long holds; the per-shard failure
	// detector reads it non-transactionally to date an orphaned hold.
	fenceOcc   tm.Addr
	fenceEpoch tm.Addr
	fences     tm.Addr

	// placeEpoch is the shard's placement epoch: the partitioner epoch as
	// of which this shard's span set is current. Every KV data operation
	// loads it inside its own transaction and compares it to the epoch
	// the request was routed under; a request stamped with an older epoch
	// may have been routed to the wrong shard by a placement that a
	// reshard has since replaced, so it bounces back for re-routing
	// instead of executing. The word only ever increases, and the bump on
	// a migration donor happens inside the same fenced transaction that
	// deletes the moved span, so a stale read and the data it would have
	// served cannot be observed together.
	placeEpoch tm.Addr
}

// FenceSlots is the fence table's capacity per shard: the maximum number
// of holds one shard carries at once. It matches the server-wide
// coordinator-slot bound, so an acquire never fails for want of a table
// entry.
const FenceSlots = 32

// Fence table entry layout: holder token (zero = free), epoch, heartbeat,
// signature.
const (
	fsToken = iota
	fsEpoch
	fsBeat
	fsSig
	fenceSlotWords
)

// NewStore allocates an empty store on h.
func NewStore(h *tm.Heap) (*Store, error) {
	kv, err := newBTree(h)
	if err != nil {
		return nil, fmt.Errorf("serve: kv store: %w", err)
	}
	pool, err := workloads.NewNodePool(h, dqNodeWords, dqNext)
	if err != nil {
		return nil, fmt.Errorf("serve: deque pool: %w", err)
	}
	// The words every operation reads — placement epoch, fence occupancy —
	// sit together at the head of the fence table, directly followed by
	// entry 0, and the table starts on a stripe boundary, so the header and
	// all of entry 0 share one ownership stripe: an operation's two checks
	// touch one stripe, as do a hold check and a release on an otherwise
	// idle table (TestFenceHeaderIsOneStripe).
	table, err := allocAligned(h, 3+FenceSlots*fenceSlotWords)
	if err != nil {
		return nil, fmt.Errorf("serve: fence slots: %w", err)
	}
	words, err := h.Alloc(3)
	if err != nil {
		return nil, fmt.Errorf("serve: deque heads: %w", err)
	}
	return &Store{
		kv: kv, pool: pool,
		lhead: words, ltail: words + 1, llen: words + 2,
		placeEpoch: table, fenceOcc: table + 1, fenceEpoch: table + 2, fences: table + 3,
	}, nil
}

// ---- the fence ----
//
// A cross-shard commit, a cross-shard scan or a span migration claims an
// entry in the shard's fence table and publishes a signature of what it
// covers: one Bloom bit per key of a commit's part, or SigAll for the
// whole shard (scans and migrations). Local operations intersect their own
// keys' bits with the held entries: a miss (one occupancy load plus, when
// entries are held, one signature AND per held entry) proceeds
// immediately; a hit comes back unexecuted and its submitter waits for
// the release. Two holds whose signatures intersect never coexist. A
// signature false positive costs one spurious wait and nothing else; a
// false negative is impossible, so atomicity never rests on the filter.

// SigAll is the whole-shard signature: it intersects every other
// signature, so its hold excludes every local operation and every other
// hold. Scans and migrations, which cannot enumerate their keys, always
// publish it.
const SigAll = ^uint64(0)

// FenceHold names one acquisition: the table entry it occupies and the
// (token, epoch) pair that distinguishes it from every earlier and later
// holder of that entry. Every apply, re-stamp and release presents it.
type FenceHold struct {
	Slot         int
	Token, Epoch uint64
}

// keyBit maps a key to its signature bit via a splitmix64-style mix, so
// dense key ranges spread across the 64-bit signature.
func keyBit(key uint64) uint64 {
	x := key + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return 1 << ((x ^ (x >> 31)) & 63)
}

// KeyFenceSig builds the Bloom signature of a key set: the union of every
// key's signature bit.
func KeyFenceSig(keys []uint64) uint64 {
	var sig uint64
	for _, k := range keys {
		sig |= keyBit(k)
	}
	return sig
}

// slotAddr returns the base word of fence table entry i.
func (s *Store) slotAddr(i int) tm.Addr { return s.fences + tm.Addr(i*fenceSlotWords) }

// AcquireFence is the CAS-with-fence of the cross-shard commit protocol:
// it claims a free table entry for token, publishing sig, bumping the
// epoch and stamping the heartbeat. The surrounding transaction makes the
// test-and-set atomic against every other fence access. Acquisition fails
// — abort-all and retry — when the table is full or when sig intersects
// an entry already held: two commits touching the same key on this shard
// must serialize, or their apply phases could interleave and tear each
// other's batches. The scan stops once it has seen every held entry, so
// on an idle table an acquire reads only the two header words.
func (s *Store) AcquireFence(tx tm.Txn, token, beat, sig uint64) (FenceHold, bool) {
	occ := tx.Load(s.fenceOcc)
	free, i := FenceSlots, 0
	for seen := uint64(0); seen < occ && i < FenceSlots; i++ {
		a := s.slotAddr(i)
		if tx.Load(a+fsToken) == 0 {
			free = min(free, i)
			continue
		}
		if seen++; tx.Load(a+fsSig)&sig != 0 {
			return FenceHold{}, false
		}
	}
	// Every held entry lies below i, so entry i — if the table has one —
	// is free without looking.
	if free = min(free, i); free == FenceSlots {
		return FenceHold{}, false
	}
	a := s.slotAddr(free)
	epoch := tx.Load(s.fenceEpoch) + 1
	tx.Store(s.fenceEpoch, epoch)
	tx.Store(a+fsToken, token)
	tx.Store(a+fsEpoch, epoch)
	tx.Store(a+fsBeat, beat)
	tx.Store(a+fsSig, sig)
	tx.Store(s.fenceOcc, occ+1)
	return FenceHold{Slot: free, Token: token, Epoch: epoch}, true
}

// HoldsFence reports whether h is still the current holder of its entry —
// the guard every apply and release runs under, which is what makes a
// superseded coordinator's late writes no-ops instead of corruption.
func (s *Store) HoldsFence(tx tm.Txn, h FenceHold) bool {
	a := s.slotAddr(h.Slot)
	return tx.Load(a+fsToken) == h.Token && tx.Load(a+fsEpoch) == h.Epoch
}

// ReleaseFence frees h's entry; the caller has checked HoldsFence in the
// same transaction, which is what makes a release racing the failure
// detector (whose recovery lets the entry be re-acquired under a new epoch)
// a no-op. Cross-shard commits release inside the same transaction that
// applies their per-shard writes, so local readers observe the writes and
// the release atomically. The signature stays behind: a free entry's is
// never read.
func (s *Store) ReleaseFence(tx tm.Txn, h FenceHold) {
	tx.Store(s.slotAddr(h.Slot)+fsToken, 0)
	tx.Store(s.fenceOcc, tx.Load(s.fenceOcc)-1)
}

// StampFence renews h's heartbeat; the caller has checked HoldsFence in
// the same transaction.
func (s *Store) StampFence(tx tm.Txn, h FenceHold, beat uint64) {
	tx.Store(s.slotAddr(h.Slot)+fsBeat, beat)
}

// FencedSig reports whether any held entry's signature intersects sig —
// the check local operations run. With nothing held it costs a single
// load, and it stops at the last held entry.
func (s *Store) FencedSig(tx tm.Txn, sig uint64) bool {
	occ := tx.Load(s.fenceOcc)
	for i, seen := 0, uint64(0); i < FenceSlots && seen < occ; i++ {
		a := s.slotAddr(i)
		if tx.Load(a+fsToken) == 0 {
			continue
		}
		if seen++; tx.Load(a+fsSig)&sig != 0 {
			return true
		}
	}
	return false
}

// FencedKey reports whether key may be covered by a held fence.
func (s *Store) FencedKey(tx tm.Txn, key uint64) bool { return s.FencedSig(tx, keyBit(key)) }

// FencedAny reports whether any fence entry is held — the conservative
// check for local range scans, whose key set cannot be intersected with a
// signature.
func (s *Store) FencedAny(tx tm.Txn) bool { return tx.Load(s.fenceOcc) != 0 }

// FenceOccWord exposes the occupancy word's heap address for
// non-transactional status peeks (fence_held, ops.fence_keys_held).
func (s *Store) FenceOccWord() tm.Addr { return s.fenceOcc }

// FenceEpochWord exposes the epoch word's heap address.
func (s *Store) FenceEpochWord() tm.Addr { return s.fenceEpoch }

// FenceSlotWordsOf exposes entry i's (token, epoch, beat) heap addresses
// for the failure detector's and /healthz's non-transactional scans.
func (s *Store) FenceSlotWordsOf(i int) (token, epoch, beat tm.Addr) {
	a := s.slotAddr(i)
	return a + fsToken, a + fsEpoch, a + fsBeat
}

// ---- live resharding (span migration + placement epoch) ----

// PlacementStale reports whether this shard's placement epoch has moved
// past the epoch a request was routed under: the request's owner lookup
// may be stale, so it must bounce back for re-routing. Reading the word
// inside the operation's own transaction is what closes the route/flip
// race — the donor's epoch bump shares a fenced transaction with the
// moved span's deletion, so an operation either runs entirely before the
// flip (and sees the data) or observes the bump (and re-routes).
func (s *Store) PlacementStale(tx tm.Txn, routedEpoch uint64) bool {
	return tx.Load(s.placeEpoch) > routedEpoch
}

// BumpPlacement raises the shard's placement epoch to epoch (monotonic:
// an older value never overwrites a newer one).
func (s *Store) BumpPlacement(tx tm.Txn, epoch uint64) {
	if tx.Load(s.placeEpoch) < epoch {
		tx.Store(s.placeEpoch, epoch)
	}
}

// PlacementWord exposes the placement-epoch word's heap address for
// non-transactional status peeks and tests.
func (s *Store) PlacementWord() tm.Addr { return s.placeEpoch }

// ExportSpan copies up to max key-value pairs in [lo, hi] (inclusive)
// out of the store, returning the pairs and, when the span held more
// than max, resume=true with next set to the first un-exported key. The
// migrator calls it in batches under the donor's fence, so each batch is
// one bounded transaction instead of a single scan proportional to the
// span's population.
func (s *Store) ExportSpan(tx tm.Txn, lo, hi uint64, max int) (keys, vals []uint64, next uint64, resume bool) {
	s.kv.AscendRange(tx, lo, hi, func(k, v uint64) bool {
		if len(keys) == max {
			next, resume = k, true
			return false
		}
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return keys, vals, next, resume
}

// InstallPairs inserts the exported pairs into this store — the
// recipient half of a span migration. Existing keys are overwritten, so
// re-running an interrupted install converges instead of diverging.
func (s *Store) InstallPairs(tx tm.Txn, self int, keys, vals []uint64) {
	for i, k := range keys {
		s.kv.Insert(tx, k, vals[i])
	}
}

// DeleteSpan removes up to max keys in [lo, hi] (inclusive), reporting
// how many it removed and whether keys remain. The donor's post-flip
// cleanup loops it to bounded transactions, exactly like ExportSpan.
func (s *Store) DeleteSpan(tx tm.Txn, self int, lo, hi uint64, max int) (removed int, more bool) {
	var doomed []uint64
	s.kv.AscendRange(tx, lo, hi, func(k, _ uint64) bool {
		if len(doomed) == max {
			more = true
			return false
		}
		doomed = append(doomed, k)
		return true
	})
	for _, k := range doomed {
		s.kv.Delete(tx, k)
	}
	return len(doomed), more
}

// Get reads the value at key.
func (s *Store) Get(tx tm.Txn, key uint64) (uint64, bool) { return s.kv.Get(tx, key) }

// Put inserts or updates key, reporting whether the key already existed.
func (s *Store) Put(tx tm.Txn, self int, key, val uint64) (existed bool) {
	return !s.kv.Insert(tx, key, val)
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(tx tm.Txn, self int, key uint64) bool {
	return s.kv.Delete(tx, key)
}

// CAS replaces the value at key with newv iff the key is present and its
// current value is old. It returns the value observed and whether the swap
// applied.
func (s *Store) CAS(tx tm.Txn, self int, key, old, newv uint64) (cur uint64, applied bool) {
	cur, ok := s.kv.Get(tx, key)
	if !ok || cur != old {
		return cur, false
	}
	s.kv.Insert(tx, key, newv)
	return newv, true
}

// Range counts and sums the values of every key in [lo, hi]. The whole
// scan is one transaction, so wide spans build the large read sets that
// push best-effort HTM into capacity aborts — the serving-side analogue of
// the scan phase in the service scenarios.
func (s *Store) Range(tx tm.Txn, lo, hi uint64) (count, sum uint64) {
	s.kv.AscendRange(tx, lo, hi, func(_, v uint64) bool {
		count++
		sum += v
		return true
	})
	return count, sum
}

// PushLeft prepends val to the deque.
func (s *Store) PushLeft(tx tm.Txn, self int, val uint64) {
	n := s.pool.Get(tx, self)
	tx.Store(n+dqVal, val)
	tx.Store(n+dqPrev, uint64(tm.NilAddr))
	head := tm.Addr(tx.Load(s.lhead))
	tx.Store(n+dqNext, uint64(head))
	if head != tm.NilAddr {
		tx.Store(head+dqPrev, uint64(n))
	} else {
		tx.Store(s.ltail, uint64(n))
	}
	tx.Store(s.lhead, uint64(n))
	tx.Store(s.llen, tx.Load(s.llen)+1)
}

// PushRight appends val to the deque.
func (s *Store) PushRight(tx tm.Txn, self int, val uint64) {
	n := s.pool.Get(tx, self)
	tx.Store(n+dqVal, val)
	tx.Store(n+dqNext, uint64(tm.NilAddr))
	tail := tm.Addr(tx.Load(s.ltail))
	tx.Store(n+dqPrev, uint64(tail))
	if tail != tm.NilAddr {
		tx.Store(tail+dqNext, uint64(n))
	} else {
		tx.Store(s.lhead, uint64(n))
	}
	tx.Store(s.ltail, uint64(n))
	tx.Store(s.llen, tx.Load(s.llen)+1)
}

// PopLeft removes and returns the head value.
func (s *Store) PopLeft(tx tm.Txn, self int) (uint64, bool) {
	n := tm.Addr(tx.Load(s.lhead))
	if n == tm.NilAddr {
		return 0, false
	}
	v := tx.Load(n + dqVal)
	next := tm.Addr(tx.Load(n + dqNext))
	tx.Store(s.lhead, uint64(next))
	if next != tm.NilAddr {
		tx.Store(next+dqPrev, uint64(tm.NilAddr))
	} else {
		tx.Store(s.ltail, uint64(tm.NilAddr))
	}
	tx.Store(s.llen, tx.Load(s.llen)-1)
	s.pool.Put(tx, self, n)
	return v, true
}

// PopRight removes and returns the tail value.
func (s *Store) PopRight(tx tm.Txn, self int) (uint64, bool) {
	n := tm.Addr(tx.Load(s.ltail))
	if n == tm.NilAddr {
		return 0, false
	}
	v := tx.Load(n + dqVal)
	prev := tm.Addr(tx.Load(n + dqPrev))
	tx.Store(s.ltail, uint64(prev))
	if prev != tm.NilAddr {
		tx.Store(prev+dqNext, uint64(tm.NilAddr))
	} else {
		tx.Store(s.lhead, uint64(tm.NilAddr))
	}
	tx.Store(s.llen, tx.Load(s.llen)-1)
	s.pool.Put(tx, self, n)
	return v, true
}

// Len returns the deque length.
func (s *Store) Len(tx tm.Txn) uint64 { return tx.Load(s.llen) }
