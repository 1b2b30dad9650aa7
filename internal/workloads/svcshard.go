package workloads

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/shard"
	"repro/internal/tm"
)

// svcShards is the protocol kernel of the service twins: an in-heap model
// of internal/serve's sharded store, one RBSet per shard plus a uniform
// four-word fence layout, with one function per serve mechanism — the
// fenced local operation, the stale-route bounce, the two-phase
// cross-shard commit and the fenced span move. Every twin keeps only its
// op stream, its schedule and its metric names; the protocol lives here
// once, so the twins model one fence and agree with serve on the rules it
// keeps:
//
//   - a transaction body only assigns results it resets on entry, because
//     a Runner re-runs the body of an aborted attempt;
//   - a cross-shard acquire refuses a shard that has shed a span since the
//     batch was routed (serve re-pins the placement epoch after acquire);
//   - one span move runs at a time (serve's reshardMu).
//
// docs/architecture.md maps each function to its serve counterpart.
type svcShards struct {
	sets  []*RBSet
	words tm.Addr // svcWords per store, laid out by the word constants
	place atomic.Pointer[svcPlace]
	// moveMu admits one span move at a time, so flips publish placements
	// in epoch order.
	moveMu sync.Mutex
}

// The per-shard words.
const (
	fenceToken = iota // holder's token, 0 when free
	fenceEpoch        // bumped by every acquisition: the guard of apply and release
	fenceBeat         // holder's heartbeat, an operation number
	placeEpoch        // placement epoch at which this shard last shed a span
	svcWords
)

// svcPlace is one epoch-stamped placement: what serve's shard.Epoched
// publishes, as a plain immutable value.
type svcPlace struct {
	part  shard.Partitioner
	epoch uint64
}

// svcTries bounds the retries of a fenced operation, like serve's
// maxFenceTries; a serial run never retries.
const svcTries = 1000

// newSvcShards builds stores RBSets (at least part's width; a resharding
// twin pre-builds its spares), their fence words and placement part at
// epoch 0, then inserts initial keys drawn from [0, keyRange) into their
// owners' stores (initial <= 0 means keyRange/2).
func newSvcShards(h *tm.Heap, rng *Rand, stores int, part shard.Partitioner, keyRange, initial int) (*svcShards, error) {
	s := &svcShards{sets: make([]*RBSet, stores)}
	for i := range s.sets {
		set, err := NewRBSet(h)
		if err != nil {
			return nil, fmt.Errorf("shard %d store: %w", i, err)
		}
		s.sets[i] = set
	}
	words, err := h.Alloc(svcWords * stores)
	if err != nil {
		return nil, fmt.Errorf("fence words: %w", err)
	}
	s.words = words
	s.place.Store(&svcPlace{part: part})
	if initial <= 0 {
		initial = keyRange / 2
	}
	seq := NewBareRunner(seqAlg(), h, 1)
	for i := 0; i < initial; i++ {
		k := uint64(rng.Intn(keyRange))
		o := part.Owner(k)
		seq.Atomic(0, func(tx tm.Txn) { s.sets[o].Insert(tx, 0, k, k) })
	}
	return s, nil
}

// word returns shard i's word w.
func (s *svcShards) word(i, w int) tm.Addr { return s.words + tm.Addr(svcWords*i+w) }

// local runs body on shard o's store in one transaction, unless o has
// shed a span since placement epoch epoch (moved: the route is stale) or
// o's fence is held (fenced: the caller retries or skips). Nothing is
// applied in either case — serve's execute path.
func (s *svcShards) local(r Runner, self, o int, epoch uint64, body func(tm.Txn, *RBSet)) (fenced, moved bool) {
	set := s.sets[o]
	r.Atomic(self, func(tx tm.Txn) {
		fenced, moved = false, false
		if moved = tx.Load(s.word(o, placeEpoch)) > epoch; moved {
			return
		}
		if fenced = tx.Load(s.word(o, fenceToken)) != 0; fenced {
			return
		}
		body(tx, set)
	})
	return fenced, moved
}

// routed is serve's submitRouted: run body on k's owner under plan and,
// when the route is stale, re-route under the live placement. It returns
// the owner that answered and how many times the operation bounced.
func (s *svcShards) routed(r Runner, self int, k uint64, plan *svcPlace, body func(tm.Txn, *RBSet)) (o int, fenced bool, bounces uint64) {
	for {
		o = plan.part.Owner(k)
		f, moved := s.local(r, self, o, plan.epoch, body)
		if !moved {
			return o, f, bounces
		}
		bounces++
		plan = s.place.Load()
	}
}

// retried runs body on k's owner, retrying while the owner is fenced the
// way a serve worker requeues a fenced request.
func (s *svcShards) retried(r Runner, self int, k uint64, body func(tm.Txn, *RBSet)) {
	for try := 0; try < svcTries; try++ {
		if _, fenced, _ := s.routed(r, self, k, s.place.Load(), body); !fenced {
			return
		}
	}
}

// svcHold is an acquired fence set: the participants in ascending order,
// the holder's token and the fence epoch each acquisition installed.
type svcHold struct {
	token  uint64
	parts  []int
	epochs []uint64
}

// acquire is phase 1 of the cross-shard commit (serve's acquireStep):
// claim the fences of parts in ascending order for token, stamping the
// heartbeat beat. A shard whose fence is held, or that has shed a span
// since placement epoch epoch, refuses; acquire then releases everything
// it claimed (abort-all) and reports false.
func (s *svcShards) acquire(r Runner, self int, parts []int, token, beat, epoch uint64) (*svcHold, bool) {
	h := &svcHold{token: token, parts: parts, epochs: make([]uint64, 0, len(parts))}
	for _, p := range parts {
		var e uint64
		r.Atomic(self, func(tx tm.Txn) {
			e = 0
			if tx.Load(s.word(p, placeEpoch)) > epoch || tx.Load(s.word(p, fenceToken)) != 0 {
				return
			}
			e = tx.Load(s.word(p, fenceEpoch)) + 1
			tx.Store(s.word(p, fenceToken), token)
			tx.Store(s.word(p, fenceEpoch), e)
			tx.Store(s.word(p, fenceBeat), beat)
		})
		if e == 0 {
			for i, e := range h.epochs {
				s.guarded(r, self, h.parts[i], token, e, nil)
			}
			return nil, false
		}
		h.epochs = append(h.epochs, e)
	}
	return h, true
}

// guarded runs body on shard p's store and releases p's fence in one
// transaction, iff (token, epoch) still holds the fence; it reports
// whether it did. With a nil body it is serve's releaseParts for one
// shard, otherwise crossPart.apply plus the release.
func (s *svcShards) guarded(r Runner, self, p int, token, epoch uint64, body func(tm.Txn, *RBSet)) (held bool) {
	set := s.sets[p]
	r.Atomic(self, func(tx tm.Txn) {
		if held = tx.Load(s.word(p, fenceToken)) == token && tx.Load(s.word(p, fenceEpoch)) == epoch; !held {
			return
		}
		if body != nil {
			body(tx, set)
		}
		tx.Store(s.word(p, fenceToken), 0)
	})
	return held
}

// commit is phase 2: every part of h applies apply and releases its fence
// in one guarded transaction; a part recovery already superseded is
// skipped.
func (s *svcShards) commit(r Runner, self int, h *svcHold, apply func(tx tm.Txn, set *RBSet, p int)) {
	for i, p := range h.parts {
		s.guarded(r, self, p, h.token, h.epochs[i], func(tx tm.Txn, set *RBSet) { apply(tx, set, p) })
	}
}

// crossRetry runs the whole commit for parts under the live placement,
// retrying an abort-all like serve's CrossRetries; it reports whether the
// operation committed.
func (s *svcShards) crossRetry(r Runner, self int, parts []int, token uint64, apply func(tx tm.Txn, set *RBSet, p int)) bool {
	for try := 0; try < svcTries; try++ {
		if h, ok := s.acquire(r, self, parts, token, token, s.place.Load().epoch); ok {
			s.commit(r, self, h, apply)
			return true
		}
	}
	return false
}

// putOwned is the multi-put apply: write val at each of keys that part
// places on shard p.
func putOwned(part shard.Partitioner, keys []uint64, self int, val uint64) func(tm.Txn, *RBSet, int) {
	return func(tx tm.Txn, set *RBSet, p int) {
		for _, k := range keys {
			if part.Owner(k) == p {
				set.Insert(tx, self, k, val)
			}
		}
	}
}

// pointOp is the single-key body the mix draw p selects: get, put of val,
// delete, or — for the rest of the mix — a CAS increment. A twin that
// serves scans peels the range share off before calling it.
func pointOp(mix ServiceOpMix, p float64, self int, k, val uint64) func(tm.Txn, *RBSet) {
	switch {
	case p < mix.Get:
		return func(tx tm.Txn, set *RBSet) { set.Get(tx, k) }
	case p < mix.Get+mix.Put:
		return func(tx tm.Txn, set *RBSet) { set.Insert(tx, self, k, val) }
	case p < mix.Get+mix.Put+mix.Del:
		return func(tx tm.Txn, set *RBSet) { set.Delete(tx, self, k) }
	}
	return func(tx tm.Txn, set *RBSet) {
		if v, ok := set.Get(tx, k); ok {
			set.Insert(tx, self, k, v+1)
		}
	}
}

// scanBody reads [lo, hi] off a store.
func scanBody(lo, hi uint64) func(tm.Txn, *RBSet) {
	return func(tx tm.Txn, set *RBSet) { set.AscendRange(tx, lo, hi, func(_, _ uint64) bool { return true }) }
}

// svcMove is one planned span move: the keys of [lo, hi] leave donor for
// recip, and next becomes the placement.
type svcMove struct {
	donor, recip int
	lo, hi       uint64
	next         shard.Partitioner
}

// The outcomes of moveSpan.
const (
	moveInstalled = iota
	moveSkipped   // the plan was an explicit no-op
	moveBlocked   // another move, or a fence holder, was in the way
)

// moveSpan is serve's moveSpan: plan a move against the live placement,
// fence the donor, copy the span to the recipient in batches of batch
// keys, flip the placement, bump the donor's placement epoch, delete the
// span off the donor and release. Every step stamps the donor's heartbeat
// with n. It returns the number of keys copied and the outcome.
func (s *svcShards) moveSpan(r Runner, self int, n uint64, batch int, plan func(live *svcPlace) (svcMove, bool)) (moved uint64, outcome int) {
	if !s.moveMu.TryLock() {
		return 0, moveBlocked
	}
	defer s.moveMu.Unlock()
	live := s.place.Load()
	m, ok := plan(live)
	if !ok {
		return 0, moveSkipped
	}
	h, ok := s.acquire(r, self, []int{m.donor}, n, n, live.epoch)
	if !ok {
		return 0, moveBlocked
	}
	src, dst, beat := s.sets[m.donor], s.sets[m.recip], s.word(m.donor, fenceBeat)
	// Copy: the donor's fence keeps writers off the span, so no copied key
	// can go stale between batches.
	for lo, more := m.lo, true; more; {
		var next uint64
		var got int
		r.Atomic(self, func(tx tm.Txn) {
			var ks, vs []uint64
			ks, vs, next, more = spanBatch(tx, src, lo, m.hi, batch)
			for i, k := range ks {
				dst.Insert(tx, self, k, vs[i])
			}
			tx.Store(beat, n)
			got = len(ks)
		})
		moved += uint64(got)
		lo = next
	}
	// Flip, then bump the donor's placement epoch so stale routes bounce,
	// then retire the span from the donor, all under the fence.
	epoch := live.epoch + 1
	s.place.Store(&svcPlace{part: m.next, epoch: epoch})
	r.Atomic(self, func(tx tm.Txn) {
		tx.Store(s.word(m.donor, placeEpoch), epoch)
		tx.Store(beat, n)
	})
	for lo, more := m.lo, true; more; {
		var next uint64
		r.Atomic(self, func(tx tm.Txn) {
			var ks []uint64
			ks, _, next, more = spanBatch(tx, src, lo, m.hi, batch)
			for _, k := range ks {
				src.Delete(tx, self, k)
			}
			tx.Store(beat, n)
		})
		lo = next
	}
	s.guarded(r, self, m.donor, h.token, h.epochs[0], nil)
	return moved, moveInstalled
}

// spanBatch reads up to max pairs of [lo, hi] off set in key order. When
// the batch is full and short of hi, more is set and next is the cursor of
// the following batch — Store.ExportSpan's contract.
func spanBatch(tx tm.Txn, set *RBSet, lo, hi uint64, max int) (keys, vals []uint64, next uint64, more bool) {
	keys, vals = make([]uint64, 0, max), make([]uint64, 0, max)
	set.AscendRange(tx, lo, hi, func(k, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return len(keys) < max
	})
	if last := len(keys) - 1; len(keys) == max && keys[last] != hi {
		next, more = keys[last]+1, true
	}
	return keys, vals, next, more
}

// verify is the routing invariant: every fence free, every key on the
// shard the live placement owns it on, and every store past the
// placement's width (a spare, or a retired donor) empty.
func (s *svcShards) verify(h *tm.Heap) error {
	live := s.place.Load()
	seq := NewBareRunner(seqAlg(), h, 1)
	var err error
	for i, set := range s.sets {
		seq.Atomic(0, func(tx tm.Txn) {
			if v := tx.Load(s.word(i, fenceToken)); v != 0 {
				err = fmt.Errorf("shard %d fence left held by %d", i, v)
				return
			}
			set.AscendRange(tx, 0, ^uint64(0), func(k, _ uint64) bool {
				if i >= live.part.Shards() {
					err = fmt.Errorf("key %d on shard %d, outside the %d-shard placement", k, i, live.part.Shards())
				} else if o := live.part.Owner(k); o != i {
					err = fmt.Errorf("key %d found on shard %d but owned by %d at epoch %d", k, i, o, live.epoch)
				}
				return err == nil
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// positive reports an error unless every value is positive: the cadences
// and widths a twin divides by or batches with. The scenario registry's
// defaults always are.
func positive(twin string, vals ...int) error {
	for _, v := range vals {
		if v <= 0 {
			return fmt.Errorf("%s: cadences, widths and shard counts must be positive", twin)
		}
	}
	return nil
}
