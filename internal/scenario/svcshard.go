package scenario

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stm"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// svcShards is the protocol kernel of the service twins: one serve.Store
// per shard on the harness heap, driven through the Store methods serve
// itself calls, with one function per serve mechanism — the fenced local
// operation, the stale-route bounce, the two-phase cross-shard commit and
// the fenced span move. Every twin keeps only its op stream, its schedule
// and its metric names; the data plane, the fence table and the placement
// word are serve's own, so the twins keep serve's rules:
//
//   - a local operation checks its key against the fence table, a scan
//     checks for any hold (serve's opFenced);
//   - a cross-shard batch publishes the signature of its keys on each
//     participant, a scan, span move or wedge the whole shard (serve's
//     partSig, serve.SigAll);
//   - a transaction body only assigns results it resets on entry, because
//     a workloads.Runner re-runs the body of an aborted attempt;
//   - a cross-shard acquire refuses a shard that has shed a span since the
//     batch was routed (serve re-pins the placement epoch after acquire);
//   - one span move runs at a time (serve's reshardMu).
//
// docs/architecture.md maps each function to its serve counterpart.
type svcShards struct {
	stores []*serve.Store
	place  atomic.Pointer[svcPlace]
	// moveMu admits one span move at a time, so flips publish placements
	// in epoch order.
	moveMu sync.Mutex
}

// svcPlace is one epoch-stamped placement: what serve's shard.Epoched
// publishes, as a plain immutable value.
type svcPlace struct {
	part  shard.Partitioner
	epoch uint64
}

// svcTries bounds the retries of a fenced operation, like serve's
// maxFenceTries; a serial run never retries.
const svcTries = 1000

// newSvcShards builds stores Stores (at least part's width; a resharding
// twin pre-builds its spares) and placement part at epoch 0, then inserts
// initial keys drawn from [0, keyRange) into their owners' stores
// (initial <= 0 means keyRange/2).
func newSvcShards(h *tm.Heap, rng *workloads.Rand, stores int, part shard.Partitioner, keyRange, initial int) (*svcShards, error) {
	s := &svcShards{stores: make([]*serve.Store, stores)}
	for i := range s.stores {
		st, err := serve.NewStore(h)
		if err != nil {
			return nil, fmt.Errorf("shard %d store: %w", i, err)
		}
		s.stores[i] = st
	}
	s.place.Store(&svcPlace{part: part})
	if initial <= 0 {
		initial = keyRange / 2
	}
	seq := workloads.NewBareRunner(&stm.GlobalLock{}, h, 1)
	for i := 0; i < initial; i++ {
		k := uint64(rng.Intn(keyRange))
		st := s.stores[part.Owner(k)]
		seq.Atomic(0, func(tx tm.Txn) { st.Put(tx, 0, k, k) })
	}
	return s, nil
}

// svcOp is one local operation: its body and the key that routes it and
// that its fence check covers. A scan's check covers the whole shard.
type svcOp struct {
	key  uint64
	scan bool
	body func(tm.Txn, *serve.Store)
}

// local runs op on shard o's store in one transaction, unless o has shed
// a span since placement epoch epoch (moved: the route is stale) or a
// held fence covers op (fenced: the caller retries or skips). Nothing is
// applied in either case — serve's applyOp.
func (s *svcShards) local(r workloads.Runner, self, o int, epoch uint64, op svcOp) (fenced, moved bool) {
	st := s.stores[o]
	r.Atomic(self, func(tx tm.Txn) {
		fenced, moved = false, false
		if moved = st.PlacementStale(tx, epoch); moved {
			return
		}
		if op.scan {
			fenced = st.FencedAny(tx)
		} else {
			fenced = st.FencedKey(tx, op.key)
		}
		if !fenced {
			op.body(tx, st)
		}
	})
	return fenced, moved
}

// routed is serve's submitRouted: run op on its key's owner under plan
// and, when the route is stale, re-route under the live placement. It
// returns the owner that answered and how many times the operation
// bounced.
func (s *svcShards) routed(r workloads.Runner, self int, plan *svcPlace, op svcOp) (o int, fenced bool, bounces uint64) {
	for {
		o = plan.part.Owner(op.key)
		f, moved := s.local(r, self, o, plan.epoch, op)
		if !moved {
			return o, f, bounces
		}
		bounces++
		plan = s.place.Load()
	}
}

// retried runs op on its key's owner, retrying while a fence covers it
// the way a serve request waits out a fenced attempt.
func (s *svcShards) retried(r workloads.Runner, self int, op svcOp) {
	for try := 0; try < svcTries; try++ {
		if _, fenced, _ := s.routed(r, self, s.place.Load(), op); !fenced {
			return
		}
	}
}

// svcHold is an acquired fence set: the participants in ascending order
// and the hold on each.
type svcHold struct {
	parts []int
	holds []serve.FenceHold
}

// wholeShard is the signature of a hold that cannot enumerate its keys —
// a scan, a span move, a wedge — on every participant.
func wholeShard(int) uint64 { return serve.SigAll }

// acquire is phase 1 of the cross-shard commit (serve's acquireStep):
// claim a fence entry on each of parts in ascending order for token,
// publishing sig(p) and stamping the heartbeat beat. A shard whose table
// holds an intersecting signature, or that has shed a span since placement
// epoch epoch, refuses; acquire then releases everything it claimed
// (abort-all) and reports false.
func (s *svcShards) acquire(r workloads.Runner, self int, parts []int, sig func(p int) uint64, token, beat, epoch uint64) (*svcHold, bool) {
	h := &svcHold{parts: parts, holds: make([]serve.FenceHold, 0, len(parts))}
	for _, p := range parts {
		st, sp := s.stores[p], sig(p)
		var fh serve.FenceHold
		var ok bool
		r.Atomic(self, func(tx tm.Txn) {
			fh, ok = serve.FenceHold{}, false
			if !st.PlacementStale(tx, epoch) {
				fh, ok = st.AcquireFence(tx, token, beat, sp)
			}
		})
		if !ok {
			for i, held := range h.holds {
				s.guarded(r, self, h.parts[i], held, true, nil)
			}
			return nil, false
		}
		h.holds = append(h.holds, fh)
	}
	return h, true
}

// guarded runs body on shard p's store, and releases h when release is
// set, in one transaction, iff h still holds its fence entry; it reports
// whether it did — serve's guarded. With a nil body and release it is
// serve's releaseParts for one shard; with a body and release it is
// crossPart.apply plus the release.
func (s *svcShards) guarded(r workloads.Runner, self, p int, h serve.FenceHold, release bool, body func(tm.Txn, *serve.Store)) (held bool) {
	st := s.stores[p]
	r.Atomic(self, func(tx tm.Txn) {
		if held = st.HoldsFence(tx, h); !held {
			return
		}
		if body != nil {
			body(tx, st)
		}
		if release {
			st.ReleaseFence(tx, h)
		}
	})
	return held
}

// commit is phase 2: every part of h applies apply and releases its fence
// in one guarded transaction; a part recovery already superseded is
// skipped.
func (s *svcShards) commit(r workloads.Runner, self int, h *svcHold, apply func(tx tm.Txn, st *serve.Store, p int)) {
	for i, p := range h.parts {
		s.guarded(r, self, p, h.holds[i], true, func(tx tm.Txn, st *serve.Store) { apply(tx, st, p) })
	}
}

// crossRetry runs the whole commit for parts under the live placement,
// retrying an abort-all like serve's CrossRetries; it reports whether the
// operation committed.
func (s *svcShards) crossRetry(r workloads.Runner, self int, parts []int, sig func(int) uint64, token uint64, apply func(tx tm.Txn, st *serve.Store, p int)) bool {
	for try := 0; try < svcTries; try++ {
		if h, ok := s.acquire(r, self, parts, sig, token, token, s.place.Load().epoch); ok {
			s.commit(r, self, h, apply)
			return true
		}
	}
	return false
}

// mput is a multi-put of val at keys under placement part, by worker
// slot self.
type mput struct {
	part shard.Partitioner
	keys []uint64
	self int
	val  uint64
}

// sig is serve's partSig: the signature of the keys placed on p.
func (m mput) sig(p int) (sig uint64) {
	for i, k := range m.keys {
		if m.part.Owner(k) == p {
			sig |= serve.KeyFenceSig(m.keys[i : i+1])
		}
	}
	return sig
}

// apply writes val at the keys placed on p.
func (m mput) apply(tx tm.Txn, st *serve.Store, p int) {
	for _, k := range m.keys {
		if m.part.Owner(k) == p {
			st.Put(tx, m.self, k, m.val)
		}
	}
}

// pointOp is the single-key operation the mix draw p selects: get, put of
// val, delete, or — for the rest of the mix — a CAS increment. A twin
// that serves scans peels the range share off before calling it.
func pointOp(mix workloads.ServiceOpMix, p float64, self int, k, val uint64) svcOp {
	op := svcOp{key: k}
	switch {
	case p < mix.Get:
		op.body = func(tx tm.Txn, st *serve.Store) { st.Get(tx, k) }
	case p < mix.Get+mix.Put:
		op.body = func(tx tm.Txn, st *serve.Store) { st.Put(tx, self, k, val) }
	case p < mix.Get+mix.Put+mix.Del:
		op.body = func(tx tm.Txn, st *serve.Store) { st.Delete(tx, self, k) }
	default:
		op.body = func(tx tm.Txn, st *serve.Store) {
			if v, ok := st.Get(tx, k); ok {
				st.CAS(tx, self, k, v, v+1)
			}
		}
	}
	return op
}

// scanOp reads [lo, hi] off the store that owns lo.
func scanOp(lo, hi uint64) svcOp {
	return svcOp{key: lo, scan: true, body: func(tx tm.Txn, st *serve.Store) { st.Range(tx, lo, hi) }}
}

// The outcomes of moveSpan.
const (
	moveInstalled = iota
	moveSkipped   // the plan was an explicit no-op
	moveBlocked   // another move, or a fence holder, was in the way
)

// moveSpan is serve's moveSpan: plan a move against the live placement,
// fence the whole donor, copy the span to the recipient in batches of
// batch keys, flip the placement, bump the donor's placement epoch, delete
// the span off the donor and release. Every step runs under the hold and
// stamps its heartbeat with n. It returns the number of keys copied and
// the outcome.
func (s *svcShards) moveSpan(r workloads.Runner, self int, n uint64, batch int, plan func(live *svcPlace) (shard.MovePlan, bool)) (moved uint64, outcome int) {
	if !s.moveMu.TryLock() {
		return 0, moveBlocked
	}
	defer s.moveMu.Unlock()
	live := s.place.Load()
	m, ok := plan(live)
	if !ok {
		return 0, moveSkipped
	}
	h, ok := s.acquire(r, self, []int{m.Donor}, wholeShard, n, n, live.epoch)
	if !ok {
		return 0, moveBlocked
	}
	hold, dst := h.holds[0], s.stores[m.Recipient]
	step := func(body func(tx tm.Txn, src *serve.Store)) {
		s.guarded(r, self, m.Donor, hold, false, func(tx tm.Txn, src *serve.Store) {
			body(tx, src)
			src.StampFence(tx, hold, n)
		})
	}
	// Copy: the donor's fence keeps writers off the span, so no copied key
	// can go stale between batches.
	for lo, more := m.MovedLo, true; more; {
		var next uint64
		var got int
		step(func(tx tm.Txn, src *serve.Store) {
			var ks, vs []uint64
			ks, vs, next, more = src.ExportSpan(tx, lo, m.MovedHi, batch)
			dst.InstallPairs(tx, self, ks, vs)
			got = len(ks)
		})
		moved += uint64(got)
		lo = next
	}
	// Flip, then bump the donor's placement epoch so stale routes bounce,
	// then retire the span from the donor, all under the fence.
	epoch := live.epoch + 1
	s.place.Store(&svcPlace{part: m.Next, epoch: epoch})
	step(func(tx tm.Txn, src *serve.Store) { src.BumpPlacement(tx, epoch) })
	for more := true; more; {
		step(func(tx tm.Txn, src *serve.Store) { _, more = src.DeleteSpan(tx, self, m.MovedLo, m.MovedHi, batch) })
	}
	s.guarded(r, self, m.Donor, hold, true, nil)
	return moved, moveInstalled
}

// verify is the routing invariant: every fence free, every key on the
// shard the live placement owns it on, and every store past the
// placement's width (a spare, or a retired donor) empty.
func (s *svcShards) verify(h *tm.Heap) error {
	live := s.place.Load()
	seq := workloads.NewBareRunner(&stm.GlobalLock{}, h, 1)
	var err error
	for i, st := range s.stores {
		seq.Atomic(0, func(tx tm.Txn) {
			if st.FencedAny(tx) {
				err = fmt.Errorf("shard %d fence left held", i)
				return
			}
			keys, _, _, _ := st.ExportSpan(tx, 0, math.MaxUint64, math.MaxInt)
			for _, k := range keys {
				if i >= live.part.Shards() {
					err = fmt.Errorf("key %d on shard %d, outside the %d-shard placement", k, i, live.part.Shards())
				} else if o := live.part.Owner(k); o != i {
					err = fmt.Errorf("key %d found on shard %d but owned by %d at epoch %d", k, i, o, live.epoch)
				}
				if err != nil {
					return
				}
			}
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

// namedMix returns a built-in service mix the twins pin by name.
func namedMix(name string) workloads.ServiceOpMix {
	m, err := workloads.ServiceMixByName(name)
	if err != nil {
		panic(err)
	}
	return m
}
