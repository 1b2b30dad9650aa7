package serve

// Chaos battery: the fault-injection substrate driven end to end against
// the self-healing cross-shard commit path. Every schedule here is
// modular (after/every/count), so the injected failures — and therefore
// the recovery counters the tests pin — are exact, not probabilistic.

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/shard"
)

func mustFault(t *testing.T, spec string, seed uint64) *fault.Injector {
	t.Helper()
	inj, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	return inj
}

// keysOnDistinctShards returns n keys, each owned by a different shard,
// so every batch over them runs the full cross-shard protocol.
func keysOnDistinctShards(t *testing.T, s *Server, n int) []uint64 {
	t.Helper()
	keys := make([]uint64, 0, n)
	seen := map[int]bool{}
	for k := uint64(0); len(keys) < n; k++ {
		if o := s.part().Owner(k); !seen[o] {
			seen[o] = true
			keys = append(keys, k)
		}
		if k > 1<<20 {
			t.Fatalf("no %d keys on distinct shards", n)
		}
	}
	return keys
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func regSize(s *Server) int {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	return len(s.reg.recs)
}

// underKeyedFences runs a battery as its "key" subtest, named for the
// fence signature every cross-shard commit publishes: its part's key bits.
func underKeyedFences(t *testing.T, battery func(t *testing.T)) { t.Run("key", battery) }

// fenceHeld reports whether any entry of ss's fence table is held.
func fenceHeld(ss *shardState) bool { return ss.sys.Load(ss.store.FenceOccWord()) != 0 }

// fencesFree reports whether no fence is held on any shard.
func fencesFree(s *Server) bool {
	for _, ss := range s.fleet() {
		if fenceHeld(ss) {
			return false
		}
	}
	return true
}

// holderOf reads the hold occupying entry slot of ss's fence table
// (Token 0: free).
func holderOf(ss *shardState, slot int) FenceHold {
	tokenW, epochW, _ := ss.store.FenceSlotWordsOf(slot)
	return FenceHold{Slot: slot, Token: ss.sys.Load(tokenW), Epoch: ss.sys.Load(epochW)}
}

// wedgeFence holds ss's whole shard for token behind the protocol's back:
// raw heap stores into an idle table — no epoch, no heartbeat, no registry
// record — the way a fence wedged by something outside the protocol
// looks. It returns the hold a detector would observe. unwedgeFence clears
// it the same way, so no release step runs and no waiter is woken.
func wedgeFence(ss *shardState, token uint64) FenceHold {
	a := ss.store.slotAddr(0)
	ss.sys.Store(a+fsSig, SigAll)
	ss.sys.Store(a+fsToken, token)
	ss.sys.Store(ss.store.FenceOccWord(), 1)
	return FenceHold{Slot: 0, Token: token}
}

func unwedgeFence(ss *shardState) {
	a := ss.store.slotAddr(0)
	ss.sys.Store(ss.store.FenceOccWord(), 0)
	ss.sys.Store(a+fsToken, 0)
}

// TestCoordinatorCrashRecovery is the acceptance test of the self-healing
// path: every injected coordinator crash between prepare and apply leaves
// its fences orphaned, the failure detector recovers each batch within
// the deadline, the decided writes roll forward exactly once, and
// ops.fence_recovered matches the injected crash count exactly.
func TestCoordinatorCrashRecovery(t *testing.T) {
	underKeyedFences(t, testCoordinatorCrashRecovery)
}

func testCoordinatorCrashRecovery(t *testing.T) {
	const crashes = 3
	s := newTestServer(t, Options{
		Shards: 3, Workers: 2, Seed: 42,
		FenceDeadline:  80 * time.Millisecond,
		DetectInterval: 20 * time.Millisecond,
		Fault:          mustFault(t, "coord-crash@every=1;count=3", 42),
	})
	keys := keysOnDistinctShards(t, s, 3)

	var lastVals []uint64
	for round := 0; round < crashes; round++ {
		vals := []uint64{uint64(round)*10 + 1, uint64(round)*10 + 2, uint64(round)*10 + 3}
		resp, code := s.submitCross(&request{op: opMPut, keys: keys, vals: vals})
		if code != http.StatusServiceUnavailable || !strings.Contains(resp.Err, "crashed") {
			t.Fatalf("round %d: crashed mput = %d %+v, want 503 with crash error", round, code, resp)
		}
		if resp.retryAfter <= 0 {
			t.Fatalf("round %d: crashed mput carries no Retry-After hint: %+v", round, resp)
		}
		want := uint64(round + 1)
		waitUntil(t, 10*time.Second, "fence recovery", func() bool {
			return s.fenceRecovered.Load() >= want
		})
		lastVals = vals
	}

	if got := s.crossCrashes.Load(); got != crashes {
		t.Fatalf("cross_crashes = %d, want %d", got, crashes)
	}
	if got := s.fenceRecovered.Load(); got != crashes {
		t.Fatalf("fence_recovered = %d, want exactly %d (one per injected crash)", got, crashes)
	}
	if got := s.fenceRolledForward.Load(); got != crashes {
		t.Fatalf("fence_rolled_forward = %d, want %d (every crash was post-decide)", got, crashes)
	}
	if got := s.fenceAborted.Load(); got != 0 {
		t.Fatalf("fence_aborted = %d, want 0", got)
	}
	if !fencesFree(s) {
		t.Fatal("fences still held after recovery")
	}
	if n := regSize(s); n != 0 {
		t.Fatalf("commit-state registry holds %d stale records", n)
	}

	// The injector's count is exhausted, so this batch commits normally —
	// and must observe the last crashed batch's rolled-forward writes.
	resp, code := s.submitCross(&request{op: opMGet, keys: keys})
	if code != http.StatusOK {
		t.Fatalf("post-recovery mget = %d %+v", code, resp)
	}
	for i := range keys {
		if !resp.Present[i] || resp.Vals[i] != lastVals[i] {
			t.Fatalf("rolled-forward write lost: mget[%d] = %+v, want %d", i, resp, lastVals[i])
		}
	}
	if h := s.Health(); !h.Healthy {
		t.Fatalf("health not ready after full recovery: %+v", h)
	}
	st := s.StatusSnapshot()
	if st.Ops.FenceRecovered != crashes || st.Ops.CrossCrashes != crashes {
		t.Fatalf("statusz recovery counters = %+v", st.Ops)
	}
	if got := st.Ops.Faults["coord-crash"]; got != crashes {
		t.Fatalf("statusz faults[coord-crash] = %d, want %d", got, crashes)
	}
}

// TestChaosLinearizability runs concurrent cross-shard traffic under
// injected coordinator crashes and checks the committed history — with
// every crashed-but-decided write included, its window extended to
// recovery — still admits a sequential witness. Run under -race in CI.
func TestChaosLinearizability(t *testing.T) {
	underKeyedFences(t, testChaosLinearizability)
}

func testChaosLinearizability(t *testing.T) {
	const clients = 3
	const opsPerClient = 4
	s := newTestServer(t, Options{
		Shards: 3, Workers: 2, HeapWords: 1 << 16, Seed: 7,
		CrossRetries:   512, // ride out fences held across a recovery window
		FenceDeadline:  100 * time.Millisecond,
		DetectInterval: 25 * time.Millisecond,
		Fault:          mustFault(t, "coord-crash@every=3;count=4", 9),
	})
	keys := keysOnDistinctShards(t, s, 3)
	base := time.Now()
	rec := &linRecorder{}
	var pendMu sync.Mutex
	var pending []shard.Op // crashed mputs: decided, applied by recovery

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				v := uint64(c*1000 + i + 1)
				op := shard.Op{Invoke: int64(time.Since(base))}
				if i%2 == 0 {
					op.Kind = shard.OpMPut
					op.Keys = append([]uint64{}, keys...)
					op.Args = []uint64{v, v, v}
					resp, code := s.submitCross(&request{op: opMPut, keys: op.Keys, vals: op.Args})
					op.Return = int64(time.Since(base))
					switch {
					case code == http.StatusOK:
						rec.record(op)
					case strings.Contains(resp.Err, "crashed"):
						// Decided before the crash: recovery will apply it.
						// Its true effect time is anywhere up to recovery
						// completion, so Return is restamped after drain.
						pendMu.Lock()
						pending = append(pending, op)
						pendMu.Unlock()
					}
					// Any other failure (abort-all exhaustion, breaker shed,
					// undecided supersede) applied nothing — safe to drop.
				} else {
					op.Kind = shard.OpMGet
					op.Keys = append([]uint64{}, keys...)
					resp, code := s.submitCross(&request{op: opMGet, keys: op.Keys})
					op.Return = int64(time.Since(base))
					if code == http.StatusOK {
						op.Vals, op.Oks = resp.Vals, resp.Present
						rec.record(op)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Quiescence: every orphaned batch recovered, every fence free.
	waitUntil(t, 15*time.Second, "chaos quiescence", func() bool {
		return regSize(s) == 0 && fencesFree(s)
	})
	if s.crossCrashes.Load() == 0 {
		t.Fatal("chaos schedule injected no coordinator crashes")
	}
	if got, want := s.fenceRecovered.Load(), s.crossCrashes.Load(); got < want {
		t.Fatalf("fence_recovered = %d < cross_crashes = %d after quiescence", got, want)
	}
	end := int64(time.Since(base))
	for _, op := range pending {
		op.Return = end
		rec.record(op)
	}
	if _, ok := shard.Linearize(rec.ops); !ok {
		t.Fatalf("chaos history of %d ops (%d crash-recovered) admits no sequential witness: %+v",
			len(rec.ops), len(pending), rec.ops)
	}
}

// TestFenceEpochLateReleaseIsNoOp pins the epoch guard: after the
// detector recovers a fence and a new coordinator re-acquires it, the
// original slow-but-alive coordinator's release — presented with its
// superseded epoch — must change nothing.
func TestFenceEpochLateReleaseIsNoOp(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2, Workers: 2, FenceDeadline: -1})
	ss := s.fleet()[1]

	r1 := s.ctlAcquire(ss, 101, SigAll)
	if !r1.Applied {
		t.Fatalf("initial acquire failed: %+v", r1)
	}
	// The detector (driven by hand: detection is disabled) declares
	// coordinator 101 dead. Its token was never registered, so the fence
	// is simply released at its observed epoch.
	s.recoverOrphan(ss, r1.hold)
	if fenceHeld(ss) {
		t.Fatalf("fence not recovered: held by %+v", holderOf(ss, r1.hold.Slot))
	}
	if got, aborted := s.fenceRecovered.Load(), s.fenceAborted.Load(); got != 1 || aborted != 1 {
		t.Fatalf("recovery counters = recovered %d aborted %d, want 1/1", got, aborted)
	}

	// A new coordinator takes the fence under a fresh epoch.
	r2 := s.ctlAcquire(ss, 202, SigAll)
	if !r2.Applied || r2.hold.Epoch != r1.hold.Epoch+1 {
		t.Fatalf("re-acquire = %+v, want epoch %d", r2, r1.hold.Epoch+1)
	}

	// The original coordinator finally issues its release with the old
	// epoch: a provable no-op, not a theft of coordinator 202's fence.
	if r := s.guarded(ss, r1.hold, true, nil); r.Applied {
		t.Fatalf("late release applied: %+v", r)
	}
	if h := holderOf(ss, r2.hold.Slot); h != r2.hold {
		t.Fatalf("fence = %+v after late release, want %+v", h, r2.hold)
	}
	if e := ss.sys.Load(ss.store.FenceEpochWord()); e != r2.hold.Epoch {
		t.Fatalf("epoch = %d after late release, want %d", e, r2.hold.Epoch)
	}

	// The current holder's correctly-epoched release still works.
	if r := s.guarded(ss, r2.hold, true, nil); !r.Applied {
		t.Fatalf("current holder's guarded release = %+v", r)
	}
	if fenceHeld(ss) {
		t.Fatalf("guarded release by current holder failed: fence = %+v", holderOf(ss, r2.hold.Slot))
	}
}

// TestDoubleRecoveryIdempotence pins the counted-once edge: recovering
// the same orphaned batch twice rolls its writes forward exactly once
// and bumps the recovery counters exactly once.
func TestDoubleRecoveryIdempotence(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 3, Workers: 2, FenceDeadline: -1,
		Fault: mustFault(t, "coord-crash@every=1;count=1", 5),
	})
	keys := keysOnDistinctShards(t, s, 3)
	vals := []uint64{10, 20, 30}
	resp, code := s.submitCross(&request{op: opMPut, keys: keys, vals: vals})
	if code != http.StatusServiceUnavailable || !strings.Contains(resp.Err, "crashed") {
		t.Fatalf("crashed mput = %d %+v", code, resp)
	}

	ss := s.fleet()[s.part().Owner(keys[0])]
	orphan := holderOf(ss, 0)
	if orphan.Token == 0 {
		t.Fatal("crashed coordinator left no fence held")
	}

	// First recovery heals the whole batch across all three shards.
	s.recoverOrphan(ss, orphan)
	for i, sh := range s.fleet() {
		if fenceHeld(sh) {
			t.Fatalf("shard %d fence still held (%+v) after recovery", i, holderOf(sh, 0))
		}
	}
	if rec, fwd := s.fenceRecovered.Load(), s.fenceRolledForward.Load(); rec != 1 || fwd != 1 {
		t.Fatalf("after first recovery: recovered %d rolled-forward %d, want 1/1", rec, fwd)
	}

	// A second detector firing on the same orphan — from this shard or
	// any other participant — must be a no-op.
	s.recoverOrphan(ss, orphan)
	other := s.fleet()[s.part().Owner(keys[1])]
	s.recoverOrphan(other, FenceHold{Token: orphan.Token, Epoch: other.sys.Load(other.store.FenceEpochWord())})
	if rec, fwd, ab := s.fenceRecovered.Load(), s.fenceRolledForward.Load(), s.fenceAborted.Load(); rec != 1 || fwd != 1 || ab != 0 {
		t.Fatalf("after double recovery: recovered %d rolled-forward %d aborted %d, want 1/1/0", rec, fwd, ab)
	}
	if n := regSize(s); n != 0 {
		t.Fatalf("registry holds %d records after recovery", n)
	}

	// The rolled-forward writes are present, once.
	resp, code = s.submitCross(&request{op: opMGet, keys: keys})
	if code != http.StatusOK {
		t.Fatalf("mget = %d %+v", code, resp)
	}
	for i := range keys {
		if !resp.Present[i] || resp.Vals[i] != vals[i] {
			t.Fatalf("mget[%d] = %+v, want %d", i, resp, vals[i])
		}
	}
}

// TestBreakerOpensAndCloses drives the progress-watchdog circuit breaker
// through a full cycle with an injected shard stall: queued work with no
// progress opens it, new admissions shed 503 with a Retry-After hint and
// /healthz goes not-ready, and resumed progress closes it again.
func TestBreakerOpensAndCloses(t *testing.T) {
	underKeyedFences(t, testBreakerOpensAndCloses)
}

func testBreakerOpensAndCloses(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 2, Workers: 1, Seed: 3,
		FenceDeadline:     5 * time.Second, // detector on, fence recovery out of play
		DetectInterval:    10 * time.Millisecond,
		BreakerStallTicks: 2,
		BreakerCooldown:   3 * time.Second,
		Fault:             mustFault(t, "shard-stall:0@every=1;count=1;stall=1200ms", 3),
	})
	var k uint64
	for s.part().Owner(k) != 0 {
		k++
	}
	ss := s.fleet()[0]

	// The first dequeue on shard 0 arms the 1.2s stall; the rest of the
	// puts sit in the queue, so the detector sees queued work with zero
	// executions and opens the breaker.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The detector may open the breaker before a later put is
			// admitted; a shed 503 is the breaker doing its job, so
			// retry like a real client until the put lands.
			for {
				resp, code := s.submit(ss, &request{op: opPut, key: k, val: uint64(i)})
				if code == http.StatusOK {
					return
				}
				if code != http.StatusServiceUnavailable {
					t.Errorf("stalled put %d = %d %+v", i, code, resp)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
		}(i)
		time.Sleep(10 * time.Millisecond)
	}
	waitUntil(t, 5*time.Second, "breaker open", func() bool {
		return s.breakerOpenTotal.Load() > 0
	})
	if h := s.Health(); h.Healthy {
		t.Fatalf("health ready with an open breaker: %+v", h)
	}
	resp, code := s.submit(ss, &request{op: opPut, key: k, val: 99})
	if code != http.StatusServiceUnavailable || resp.retryAfter <= 0 {
		t.Fatalf("open-breaker submit = %d %+v, want 503 with Retry-After", code, resp)
	}
	if s.breakerShed.Load() == 0 {
		t.Fatal("shed admission not counted")
	}

	// The stall expires, the queue drains, and the next detector tick
	// observes progress and closes the breaker.
	wg.Wait()
	waitUntil(t, 5*time.Second, "breaker close", func() bool {
		return ss.breakerState.Load() == breakerClosed
	})
	if h := s.Health(); !h.Healthy {
		t.Fatalf("health not ready after breaker closed: %+v", h)
	}
	if resp, code := s.submit(ss, &request{op: opPut, key: k, val: 100}); code != http.StatusOK {
		t.Fatalf("post-recovery put = %d %+v", code, resp)
	}
	if st := s.StatusSnapshot(); st.Shards[0].Breaker != "closed" || st.Ops.BreakerOpenTotal == 0 {
		t.Fatalf("statusz breaker state = %+v", st.Shards[0])
	}
}

// TestTornWriteAfterAcquireStallRecovery is the permanent regression
// test for the torn-write-after-recovery bug: a coordinator stalled
// mid-acquire whose undecided batch is aborted by fence recovery must,
// on resuming, re-validate its parts before deciding — it must never
// apply the non-recovered subset and report 200 for a partial write.
func TestTornWriteAfterAcquireStallRecovery(t *testing.T) {
	underKeyedFences(t, testTornWriteAfterAcquireStallRecovery)
}

func testTornWriteAfterAcquireStallRecovery(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 3, Workers: 2, Seed: 11,
		FenceDeadline:  60 * time.Millisecond,
		DetectInterval: 15 * time.Millisecond,
		// Arrival 1 = before first acquire; fire on arrival 2 so the
		// coordinator stalls holding shard A's fence, well past the
		// detection deadline.
		Fault: mustFault(t, "fence-acquire-stall@after=1;count=1;stall=500ms", 11),
	})
	keys := keysOnDistinctShards(t, s, 3)
	vals := []uint64{111, 222, 333}

	resp, code := s.submitCross(&request{op: opMPut, keys: keys, vals: vals})
	t.Logf("mput resp=%+v code=%d aborted=%d recovered=%d", resp, code,
		s.fenceAborted.Load(), s.fenceRecovered.Load())

	got, gcode := s.submitCross(&request{op: opMGet, keys: keys})
	if gcode != http.StatusOK {
		t.Fatalf("mget = %d %+v", gcode, got)
	}
	t.Logf("mget present=%v vals=%v", got.Present, got.Vals)

	if code == http.StatusOK {
		// The server reported success: every key must hold its value.
		for i := range keys {
			if !got.Present[i] || got.Vals[i] != vals[i] {
				t.Fatalf("TORN WRITE: mput returned 200 but key[%d]: present=%v val=%d (want %d)",
					i, got.Present[i], got.Vals[i], vals[i])
			}
		}
	} else {
		// The server reported failure: an atomic batch must be all-or-nothing.
		any, all := false, true
		for i := range keys {
			if got.Present[i] && got.Vals[i] == vals[i] {
				any = true
			} else {
				all = false
			}
		}
		if any && !all {
			t.Fatalf("TORN WRITE: mput failed (%d) but writes partially applied: present=%v vals=%v",
				code, got.Present, got.Vals)
		}
	}
}

// TestStalledCoordinatorsNeverSplitABatch races the two parties that share
// a registry record's state — its coordinator and the failure detectors —
// over many records at once: eight coordinators commit three-shard batches
// while injected stalls park some of them on already-claimed fences past the
// detection deadline, so recovery claims their records while they sleep and
// they resume into decide. Each coordinator owns its keys, so after every
// batch it can tell exactly what the batch did: a 200 means every key holds
// the batch's value, anything else that every key still holds the previous
// one — whole or nothing, with no key left out of either census.
func TestStalledCoordinatorsNeverSplitABatch(t *testing.T) {
	const coordinators, rounds = 8, 20
	s := newTestServer(t, Options{
		Shards: 3, Workers: 2, Seed: 5,
		FenceDeadline:  40 * time.Millisecond,
		DetectInterval: 10 * time.Millisecond,
		Fault:          mustFault(t, "fence-acquire-stall@after=2;every=9;count=30;stall=120ms", 5),
	})
	var byShard [3][]uint64
	for k := uint64(0); len(byShard[0]) < coordinators || len(byShard[1]) < coordinators || len(byShard[2]) < coordinators; k++ {
		o := s.part().Owner(k)
		byShard[o] = append(byShard[o], k)
	}
	var applied, aborted atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < coordinators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			keys := []uint64{byShard[0][c], byShard[1][c], byShard[2][c]}
			var last uint64 // the value every key holds; 0 = absent
			for i := 1; i <= rounds; i++ {
				v := uint64(c*1000 + i)
				_, code := s.submitCross(&request{op: opMPut, keys: keys, vals: []uint64{v, v, v}})
				var got response
				for try := 0; ; try++ { // a read may itself be superseded by a recovery
					var gcode int
					if got, gcode = s.submitCross(&request{op: opMGet, keys: keys}); gcode == http.StatusOK {
						break
					}
					if try == 50 {
						t.Errorf("coordinator %d: mget = %d %+v", c, gcode, got)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				want := last
				if code == http.StatusOK {
					want = v
				}
				for j := range keys {
					if have := got.Vals[j]; got.Present[j] != (want != 0) || have != want {
						t.Errorf("SPLIT BATCH: coordinator %d batch %d answered %d; key %d holds %d (present=%v), want %d — all keys: %v %v",
							c, i, code, j, have, got.Present[j], want, got.Vals, got.Present)
						return
					}
				}
				if last = want; code == http.StatusOK {
					applied.Add(1)
				} else {
					aborted.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if applied.Load()+aborted.Load() != coordinators*rounds && !t.Failed() {
		t.Fatalf("census: %d applied + %d aborted of %d batches", applied.Load(), aborted.Load(), coordinators*rounds)
	}
	// A recovered batch need not fail: when the stalled coordinator resumes
	// into a refused acquire it aborts the attempt and commits on the next.
	if s.fenceRecovered.Load() == 0 {
		t.Fatal("fence_recovered = 0: no stall outlived the detection deadline, the test raced nothing")
	}
	waitUntil(t, 5*time.Second, "every fence released and every record gone", func() bool { return fencesFree(s) && regSize(s) == 0 })
	t.Logf("%d applied whole, %d aborted whole, %d recovered by the detectors", applied.Load(), aborted.Load(), s.fenceRecovered.Load())
}
