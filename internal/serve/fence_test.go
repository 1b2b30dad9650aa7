package serve

// Battery for the single fence table: a store-level model test against a
// plain-Go reference, the two kinds of hold seen from the server (a
// whole-shard hold stops everything, a keyed hold only what it
// intersects), and the status surfaces' view of a held fence.

import (
	"math/rand"
	"net/http"
	"testing"
	"time"

	proteustm "repro"
)

// refHold is one entry of the model test's reference: a plain list of what
// is held.
type refHold struct {
	h   FenceHold
	sig uint64
}

// TestFenceTableModel runs seeded random programs of acquire / release /
// stale release / FencedSig / FencedKey / FencedAny against the reference:
// an acquire is refused iff its signature intersects a held one or the
// table is full, the occupancy word always equals the number of held
// entries, a superseded (token, epoch) never releases, and the
// occupancy-bounded scans answer what a scan of all FenceSlots entries
// answers.
func TestFenceTableModel(t *testing.T) {
	sys, err := proteustm.Open(proteustm.WithWorkers(1), proteustm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	w, err := sys.Worker(0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		st, err := NewStore(sys.Heap())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var held, gone []refHold
		token := uint64(0)
		refFenced := func(sig uint64) bool {
			for _, r := range held {
				if r.sig&sig != 0 {
					return true
				}
			}
			return false
		}
		randSig := func() uint64 {
			switch rng.Intn(8) {
			case 0:
				return SigAll
			case 1:
				return KeyFenceSig([]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()})
			default:
				return keyBit(rng.Uint64())
			}
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // acquire
				sig := randSig()
				token++
				var h FenceHold
				var ok bool
				w.Atomic(func(tx proteustm.Txn) { h, ok = st.AcquireFence(tx, token, uint64(step), sig) })
				if want := !refFenced(sig) && len(held) < FenceSlots; ok != want {
					t.Fatalf("seed %d step %d: acquire(%#x) = %v with %d held, want %v", seed, step, sig, ok, len(held), want)
				}
				if ok {
					if h.Token != token || h.Slot >= FenceSlots {
						t.Fatalf("seed %d step %d: acquire returned %+v for token %d", seed, step, h, token)
					}
					for _, r := range append(held, gone...) {
						if r.h.Epoch >= h.Epoch {
							t.Fatalf("seed %d step %d: epoch %d does not exceed earlier hold %+v", seed, step, h.Epoch, r.h)
						}
					}
					for _, r := range held {
						if r.h.Slot == h.Slot {
							t.Fatalf("seed %d step %d: acquire reused held slot %d", seed, step, h.Slot)
						}
					}
					held = append(held, refHold{h, sig})
				}
			case op < 6 && len(held) > 0: // release
				i := rng.Intn(len(held))
				var ok bool
				w.Atomic(func(tx proteustm.Txn) {
					if ok = st.HoldsFence(tx, held[i].h); ok {
						st.ReleaseFence(tx, held[i].h)
					}
				})
				if !ok {
					t.Fatalf("seed %d step %d: current holder %+v could not release", seed, step, held[i].h)
				}
				gone = append(gone, held[i])
				held = append(held[:i], held[i+1:]...)
			case op < 7 && len(gone) > 0: // a superseded hold's late guard
				stale := gone[rng.Intn(len(gone))].h
				var holds bool
				w.Atomic(func(tx proteustm.Txn) { holds = st.HoldsFence(tx, stale) })
				if holds {
					t.Fatalf("seed %d step %d: superseded hold %+v still passes the guard", seed, step, stale)
				}
			default: // the local checks
				sig, key := randSig(), rng.Uint64()
				var bySig, byKey, any bool
				w.Atomic(func(tx proteustm.Txn) {
					bySig, byKey, any = st.FencedSig(tx, sig), st.FencedKey(tx, key), st.FencedAny(tx)
				})
				if bySig != refFenced(sig) || byKey != refFenced(keyBit(key)) || any != (len(held) > 0) {
					t.Fatalf("seed %d step %d: FencedSig=%v FencedKey=%v FencedAny=%v, reference %v %v %v",
						seed, step, bySig, byKey, any, refFenced(sig), refFenced(keyBit(key)), len(held) > 0)
				}
			}
			// The heap table, read in full, is the reference list.
			if occ := sys.Load(st.FenceOccWord()); occ != uint64(len(held)) {
				t.Fatalf("seed %d step %d: occupancy word %d, %d held", seed, step, occ, len(held))
			}
			n := 0
			for i := 0; i < FenceSlots; i++ {
				tokenW, epochW, _ := st.FenceSlotWordsOf(i)
				tok := sys.Load(tokenW)
				if tok == 0 {
					continue
				}
				n++
				found := false
				for _, r := range held {
					found = found || r.h == FenceHold{Slot: i, Token: tok, Epoch: sys.Load(epochW)}
				}
				if !found {
					t.Fatalf("seed %d step %d: table entry %d held by token %d, not in the reference", seed, step, i, tok)
				}
			}
			if n != len(held) {
				t.Fatalf("seed %d step %d: %d table entries held, reference has %d", seed, step, n, len(held))
			}
		}
	}
}

// TestFenceTableFull fills the table with disjoint single-bit holds: the
// next disjoint acquire is refused for want of an entry, and succeeds once
// any entry is released.
func TestFenceTableFull(t *testing.T) {
	sys, err := proteustm.Open(proteustm.WithWorkers(1), proteustm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	w, _ := sys.Worker(0)
	st, err := NewStore(sys.Heap())
	if err != nil {
		t.Fatal(err)
	}
	acquire := func(token, sig uint64) (h FenceHold, ok bool) {
		w.Atomic(func(tx proteustm.Txn) { h, ok = st.AcquireFence(tx, token, 1, sig) })
		return h, ok
	}
	var holds []FenceHold
	for i := 0; i < FenceSlots; i++ {
		h, ok := acquire(uint64(i+1), 1<<i)
		if !ok {
			t.Fatalf("disjoint acquire %d refused", i)
		}
		holds = append(holds, h)
	}
	if _, ok := acquire(99, 1<<40); ok {
		t.Fatal("acquire succeeded on a full table")
	}
	w.Atomic(func(tx proteustm.Txn) { st.ReleaseFence(tx, holds[17]) })
	h, ok := acquire(99, 1<<40)
	if !ok || h.Slot != holds[17].Slot {
		t.Fatalf("acquire after a release = %+v %v, want the freed entry %d", h, ok, holds[17].Slot)
	}
}

// localOps is one request of every data-operation kind, all on key k.
func localOps(k uint64) []*request {
	return []*request{
		{op: opGet, key: k}, {op: opPut, key: k, val: 1}, {op: opDel, key: k}, {op: opCAS, key: k, old: 1, newv: 2},
		{op: opMPut, keys: []uint64{k}, vals: []uint64{1}}, {op: opMGet, keys: []uint64{k}},
		{op: opRange, lo: k, hi: k},
		{op: opRPush, val: 1}, {op: opLPush, val: 1}, {op: opRPop}, {op: opLPop}, {op: opLLen},
	}
}

// expectAllWait submits every local operation kind on victim and requires
// each to wait — fenced, not answered — until release is called.
func expectAllWait(t *testing.T, s *Server, victim *shardState, k uint64, release func()) {
	t.Helper()
	ops := localOps(k)
	executed, fenced := victim.executed.Load(), s.fenced.Load()
	done := make(chan int, len(ops))
	for i, req := range ops {
		go func(i int, req *request) {
			if resp, code := s.submit(victim, req); code != http.StatusOK {
				t.Errorf("op %s under a whole-shard hold = %d %+v", opNames[req.op], code, resp)
			}
			done <- i
		}(i, req)
	}
	waitUntil(t, 5*time.Second, "the operations to come back fenced", func() bool {
		return s.fenced.Load() >= fenced+4*uint64(len(ops))
	})
	select {
	case i := <-done:
		t.Fatalf("%s completed while the whole shard was fenced", opNames[ops[i].op])
	case <-time.After(20 * time.Millisecond):
	}
	if got := victim.executed.Load(); got != executed {
		t.Fatalf("%d operation(s) executed while the whole shard was fenced", got-executed)
	}
	release()
	for range ops {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("an operation never completed after the release")
		}
	}
}

// expectWholeShardHold requires a SigAll hold taken by acquire on shard
// 0 to make every other coordinator abort-all, however few keys it
// touches there, and every local operation kind wait until the release.
func expectWholeShardHold(t *testing.T, acquire func(s *Server, victim *shardState, k uint64) FenceHold) {
	t.Helper()
	s := newTestServer(t, Options{Shards: 2, Workers: 2, CrossRetries: 2})
	keys := keysOnDistinctShards(t, s, 2)
	victim := s.fleet()[0]
	var k uint64
	for s.part().Owner(k) != 0 {
		k++
	}
	hold := acquire(s, victim, k)
	if _, code := s.submitCross(&request{op: opMPut, keys: keys, vals: []uint64{1, 2}}); code != http.StatusServiceUnavailable {
		t.Fatalf("mput against a held shard = %d, want 503 after abort-all", code)
	}
	if got := s.crossAborts.Load(); got != 2 {
		t.Fatalf("cross_aborts = %d, want one per attempt (2)", got)
	}
	if fenceHeld(s.fleet()[1]) {
		t.Fatal("abort-all left the other participant fenced")
	}
	expectAllWait(t, s, victim, k, func() { s.guarded(victim, hold, true, nil) })
}

// TestShardFenceBlocksEverything: a cross-shard range scan's part
// publishes the whole-shard signature, so a scan stalled between prepare
// and apply stops every local operation kind and every other coordinator.
func TestShardFenceBlocksEverything(t *testing.T) {
	expectWholeShardHold(t, func(s *Server, victim *shardState, k uint64) FenceHold {
		sig := partSig(&request{op: opRange, lo: k, hi: k}, &crossPart{})
		if sig != SigAll {
			t.Fatalf("a range scan's part publishes %#x, want the whole shard", sig)
		}
		acq := s.ctlAcquire(victim, 7, sig)
		if !acq.Applied {
			t.Fatalf("acquire = %+v", acq)
		}
		return acq.hold
	})
}

// TestMigrationFenceBlocksEverythingUnderKeyPolicy: a span move's donor
// hold is whole-shard although cross-shard commits publish key bits, so
// it still stops every local operation and every other coordinator.
func TestMigrationFenceBlocksEverythingUnderKeyPolicy(t *testing.T) {
	expectWholeShardHold(t, func(s *Server, donor *shardState, _ uint64) FenceHold {
		hold, err := s.acquireMigrationFence(donor, 7)
		if err != nil {
			t.Fatal(err)
		}
		return hold
	})
}

// TestKeyedFenceConflictSerializes: two coordinators whose parts intersect
// on a shard serialize — the second aborts-all while the first holds — and
// one whose keys are disjoint commits alongside it.
func TestKeyedFenceConflictSerializes(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2, Workers: 2, CrossRetries: 2})
	// Two keys per shard with pairwise disjoint signature bits.
	var on [2][]uint64
	var used uint64
	for k := uint64(0); len(on[0]) < 2 || len(on[1]) < 2; k++ {
		if o := s.part().Owner(k); len(on[o]) < 2 && keyBit(k)&used == 0 {
			on[o] = append(on[o], k)
			used |= keyBit(k)
		}
	}
	held := []uint64{on[0][0], on[1][0]}
	acq := s.ctlAcquire(s.fleet()[0], 7, KeyFenceSig(held[:1]))
	if !acq.Applied {
		t.Fatalf("keyed acquire = %+v", acq)
	}
	if _, code := s.submitCross(&request{op: opMPut, keys: held, vals: []uint64{1, 2}}); code != http.StatusServiceUnavailable {
		t.Fatalf("intersecting mput = %d, want 503 after abort-all", code)
	}
	if got := s.crossAborts.Load(); got != 2 {
		t.Fatalf("cross_aborts = %d after the intersecting batch, want 2", got)
	}
	if resp, code := s.submitCross(&request{op: opMPut, keys: []uint64{on[0][1], on[1][1]}, vals: []uint64{3, 4}}); code != http.StatusOK || !resp.Applied {
		t.Fatalf("disjoint mput beside a keyed hold = %d %+v", code, resp)
	}
	if got := s.crossAborts.Load(); got != 2 {
		t.Fatalf("cross_aborts = %d after the disjoint batch, want still 2", got)
	}
	s.guarded(s.fleet()[0], acq.hold, true, nil)
	if resp, code := s.submitCross(&request{op: opMPut, keys: held, vals: []uint64{1, 2}}); code != http.StatusOK || !resp.Applied {
		t.Fatalf("intersecting mput after the release = %d %+v", code, resp)
	}
}

// TestFenceHeldVisibleUnderBothPolicies: while a fence is held, under
// both recovery policies of the detector — a registered batch, stalled
// between acquisitions and recovered whole, then a raw wedge, released as
// an unregistered token — /statusz shards[].fence_held, /healthz
// fence_held (and, past the deadline, fence_stale) and
// ops.fence_keys_held agree, and all clear after recovery.
func TestFenceHeldVisibleUnderBothPolicies(t *testing.T) {
	underKeyedFences(t, testFenceHeldVisible)
}

func testFenceHeldVisible(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 2, Workers: 2,
		Fault:         mustFault(t, "fence-acquire-stall@after=1;count=1;stall=300ms", 1),
		FenceDeadline: 60 * time.Millisecond,
	})
	// view reads the three surfaces for shard i. They are read one after
	// the other, so while a hold comes or goes they may differ for an
	// instant: agree reports whether this reading was consistent, and
	// every state the test waits for must be reached with agree set.
	view := func(i int) (held, stale, agree bool) {
		st, h := s.StatusSnapshot(), s.Health()
		var holds uint64
		agree = true
		for j, sh := range st.Shards {
			agree = agree && sh.FenceHeld == h.Shards[j].FenceHeld
			if sh.FenceHeld {
				holds++ // at most one hold per shard in this test
			}
		}
		agree = agree && st.Ops.FenceKeysHeld == holds && !(h.Shards[i].FenceStale && h.Healthy)
		return st.Shards[i].FenceHeld, h.Shards[i].FenceStale, agree
	}
	clear := func() bool {
		held0, _, agree0 := view(0)
		held1, _, agree1 := view(1)
		return !held0 && !held1 && agree0 && agree1
	}

	// A registered batch: the coordinator takes shard 0's fence, then
	// stalls before shard 1's.
	keys := keysOnDistinctShards(t, s, 2)
	first := s.part().Participants(keys)[0]
	done := make(chan int, 1)
	go func() {
		_, code := s.submitCross(&request{op: opMPut, keys: keys, vals: []uint64{1, 2}})
		done <- code
	}()
	waitUntil(t, 5*time.Second, "the stalled coordinator's first fence to show on every surface", func() bool {
		held, _, agree := view(first)
		return held && agree
	})
	// The stall outlasts the deadline: the detector aborts the undecided
	// batch, and the resumed coordinator finds itself superseded.
	if code := <-done; code != http.StatusServiceUnavailable {
		t.Fatalf("stalled mput = %d, want 503 (superseded by recovery)", code)
	}
	waitUntil(t, 5*time.Second, "every surface clear after the batch's recovery", clear)
	if got := s.fenceRecovered.Load(); got != 1 {
		t.Fatalf("fence_recovered = %d after the stalled batch, want 1", got)
	}

	// A raw wedge: nothing registered, no heartbeat.
	wedgeFence(s.fleet()[1], 999)
	waitUntil(t, 5*time.Second, "the wedge to show on every surface", func() bool {
		held, _, agree := view(1)
		return held && agree
	})
	waitUntil(t, 5*time.Second, "the wedge to go stale or be recovered", func() bool {
		held, stale, agree := view(1)
		return agree && (stale || !held)
	})
	waitUntil(t, 5*time.Second, "every surface clear after the wedge's recovery", clear)
	if got := s.fenceRecovered.Load(); got != 2 {
		t.Fatalf("fence_recovered = %d after the wedge, want 2", got)
	}
	if h := s.Health(); !h.Healthy {
		t.Fatalf("health not ready after recovery: %+v", h)
	}
}
