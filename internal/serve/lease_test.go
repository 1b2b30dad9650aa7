package serve

// Battery for the leased-slot executor and the wake-on-release wait: slot
// tokens are conserved through reconfiguration storms, a fenced operation
// waits holding no token, a wait spins before it blocks (one spinner a
// shard, never behind backlog, never on one P), the shard's line serves in
// arrival order with control steps first and bounces when the shard
// retires, a wake-up that never comes costs at most the wait's bound, and a
// retired shard executes nothing.

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	proteustm "repro"
	"repro/internal/shard"
)

// tokenCensus counts shard ss's circulating and parked slot tokens.
func tokenCensus(ss *shardState) (circulating, parked int) {
	ss.tokenMu.Lock()
	defer ss.tokenMu.Unlock()
	return len(ss.tokens), len(ss.parked)
}

// TestTokenConservationUnderReconfigureStorm races live traffic — data
// operations and control steps — against 1000 shrink/grow
// reconfigurations. Nothing may ever execute on a slot outside the
// installed parallelism degree, and at every quiescent point each of the
// shard's Workers tokens is either circulating or parked: none leaked,
// none duplicated.
func TestTokenConservationUnderReconfigureStorm(t *testing.T) {
	const workers = 4
	const reconfigs = 1000
	s := newTestServer(t, Options{Workers: workers, Preload: 64, QueueDepth: 4096})
	ss := s.fleet()[0]

	var traffic sync.RWMutex // held shared per operation; exclusively at a quiescent point
	var stop atomic.Bool
	var outside, failed, done atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				traffic.RLock()
				if i%3 == 0 {
					// A control step sees the slot it runs on; process holds
					// drainMu shared around it, so active cannot shrink here.
					s.ctl(ss, func(_ proteustm.Txn, slot int) response {
						if int64(slot) >= ss.active.Load() {
							outside.Add(1)
						}
						return response{}
					})
				} else if _, code := s.submit(ss, &request{op: opPut, key: uint64(c*1000 + i%64), val: uint64(i)}); code != http.StatusOK {
					failed.Add(1)
				}
				done.Add(1)
				traffic.RUnlock()
			}
		}(c)
	}

	census := func(when string) {
		t.Helper()
		traffic.Lock()
		defer traffic.Unlock()
		circulating, parked := tokenCensus(ss)
		if circulating+parked != workers {
			t.Fatalf("%s: %d circulating + %d parked tokens, want %d in all", when, circulating, parked, workers)
		}
		ss.tokenMu.Lock()
		for _, id := range ss.parked {
			if int64(id) < ss.active.Load() {
				t.Errorf("%s: token %d parked inside the parallelism degree %d", when, id, ss.active.Load())
			}
		}
		ss.tokenMu.Unlock()
	}
	for i := 0; i < reconfigs; i++ {
		// Every reconfiguration lands between live operations.
		for seen := done.Load(); done.Load() == seen; {
			runtime.Gosched()
		}
		threads := 1 + (i*7)%workers
		if err := ss.sys.SetConfig(proteustm.Config{Alg: proteustm.NOrec, Threads: threads}); err != nil {
			t.Fatalf("reconfiguration %d: %v", i, err)
		}
		if i%100 == 99 {
			census(fmt.Sprintf("after reconfiguration %d", i))
		}
	}
	stop.Store(true)
	wg.Wait()
	census("after the storm")

	if n := outside.Load(); n > 0 {
		t.Fatalf("%d control steps ran on a slot outside the parallelism degree", n)
	}
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d operations failed during the storm", n, done.Load())
	}
	// Growing back to the full degree puts every token into circulation.
	if err := ss.sys.SetConfig(proteustm.Config{Alg: proteustm.NOrec, Threads: workers}); err != nil {
		t.Fatal(err)
	}
	if circulating, parked := tokenCensus(ss); circulating != workers || parked != 0 {
		t.Fatalf("at full degree: %d circulating, %d parked, want %d and 0", circulating, parked, workers)
	}
	if st := s.StatusSnapshot(); st.Ops.Direct == 0 {
		t.Fatalf("ops.direct = 0 after %d operations on an uncontended shard", done.Load())
	}
}

// TestFencedOpsHoldNoToken: with two slots and two submitters both fenced,
// there is an instant at which both wait for the release while both
// tokens are home — so the release step, which needs a slot, cannot be
// starved by the operations waiting for it.
func TestFencedOpsHoldNoToken(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2, Workers: 2})
	victim := s.fleet()[1]
	if got := victim.active.Load(); got != 2 {
		t.Skipf("boot configuration runs %d threads; the test needs both slots active", got)
	}
	var keys []uint64
	for k := uint64(0); len(keys) < 2; k++ {
		if s.part().Owner(k) == 1 {
			keys = append(keys, k)
		}
	}
	acq := s.ctlAcquire(victim, 7, SigAll)
	if !acq.Applied {
		t.Fatalf("acquire = %+v", acq)
	}

	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k uint64) {
			defer wg.Done()
			if resp, code := s.submit(victim, &request{op: opPut, key: k, val: uint64(i + 1)}); code != http.StatusOK || !resp.Applied {
				t.Errorf("fenced put %d = %d %+v", i, code, resp)
			}
		}(i, k)
	}
	waitUntil(t, 5*time.Second, "both submitters waiting with both tokens home", func() bool {
		circulating, _ := tokenCensus(victim)
		return victim.relWaiters.Load() == 2 && circulating == 2
	})

	released := make(chan struct{})
	go func() {
		defer close(released)
		s.guarded(victim, acq.hold, true, nil)
	}()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("release step starved by the operations waiting for it")
	}
	wg.Wait()
	st := s.StatusSnapshot()
	if st.Ops.Fenced < 2 || st.Ops.FenceWaits < 2 || st.Ops.FenceWaitMs <= 0 {
		t.Fatalf("fenced_requeues=%d fence_waits=%d fence_wait_ms=%v after two fenced puts",
			st.Ops.Fenced, st.Ops.FenceWaits, st.Ops.FenceWaitMs)
	}
}

// TestAwaitRelease pins the wait primitive: a release wakes the waiter
// long before its bound, a release that already landed is not waited for,
// and with no release at all the waiter returns at the bound.
func TestAwaitRelease(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2, Workers: 2})
	ss := s.fleet()[0]

	gen := ss.relGen.Load()
	woken := make(chan time.Duration, 1)
	go func() { d, _ := ss.awaitRelease(gen, 10*time.Second); woken <- d }()
	waitUntil(t, 2*time.Second, "waiter registered", func() bool { return ss.relWaiters.Load() == 1 })
	ss.fenceReleased()
	select {
	case d := <-woken:
		if d > 5*time.Second {
			t.Fatalf("woken waiter took %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release did not wake the waiter")
	}

	// gen is stale now: the release the caller would wait for has happened.
	if d, _ := ss.awaitRelease(gen, 10*time.Second); d > 5*time.Second {
		t.Fatalf("wait on a generation already passed took %v", d)
	}
	if got := s.fenceWaitTimeouts.Load(); got != 0 {
		t.Fatalf("fence_wait_timeouts = %d after two woken waits, want 0", got)
	}

	// Missed wake-up: nothing releases, the bound ends the wait.
	const bound = 5 * time.Millisecond
	if d, timedOut := ss.awaitRelease(ss.relGen.Load(), bound); !timedOut || d < bound || d > 100*bound {
		t.Fatalf("unwoken wait took %v, want about the %v bound", d, bound)
	}
	// Only the second wait ended in its spin (its first poll): the first had
	// registered, the third ran out its spin and then its bound.
	st := s.StatusSnapshot()
	if st.Ops.FenceWaits != 3 || st.Ops.FenceWaitTimeouts != 1 || st.Ops.FenceWaitMs < 5 || st.Ops.FenceWaitSpun != 1 {
		t.Fatalf("fence_waits=%d fence_wait_timeouts=%d fence_wait_ms=%v fence_wait_spun=%d, want 3, 1, >= 5 and 1",
			st.Ops.FenceWaits, st.Ops.FenceWaitTimeouts, st.Ops.FenceWaitMs, st.Ops.FenceWaitSpun)
	}
}

// TestSpinSeesReleaseWithoutParking: a release that lands while the waiter
// spins ends the wait without the waiter ever registering for the wake-up —
// no relWaiters entry, so the release does not even replace relCh — and the
// wait is booked like any other. On a stepClock the release lands between
// two of the spin's polls, whatever the scheduler does.
func TestSpinSeesReleaseWithoutParking(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	clk := newStepClock()
	s := newTestServerOn(t, Options{Shards: 2, Workers: 2, FenceDeadline: -1}, clk)
	ss := s.fleet()[0]
	ss.relMu.Lock()
	ch := ss.relCh
	ss.relMu.Unlock()
	before := s.StatusSnapshot().Ops
	gen := ss.relGen.Load()
	clk.onRead = func() {
		if ss.relSpinner.Load() && ss.relGen.Load() == gen {
			ss.fenceReleased()
		}
	}
	_, timedOut := ss.awaitRelease(gen, 10*time.Second)
	clk.onRead = nil
	if timedOut {
		t.Fatal("a released wait reported running into its bound")
	}
	after := s.StatusSnapshot().Ops
	if after.FenceWaits != before.FenceWaits+1 || after.FenceWaitMs <= before.FenceWaitMs {
		t.Fatalf("fence_waits %d -> %d, fence_wait_ms %v -> %v: the wait was not booked",
			before.FenceWaits, after.FenceWaits, before.FenceWaitMs, after.FenceWaitMs)
	}
	if after.FenceWaitSpun != before.FenceWaitSpun+1 {
		t.Fatalf("fence_wait_spun %d -> %d for a release that landed inside the spin", before.FenceWaitSpun, after.FenceWaitSpun)
	}
	ss.relMu.Lock()
	defer ss.relMu.Unlock()
	if ss.relCh != ch || ss.relWaiters.Load() != 0 {
		t.Fatalf("a wait that ended in its spin left relWaiters=%d, relCh replaced=%v", ss.relWaiters.Load(), ss.relCh != ch)
	}
}

// TestOneSpinnerPerWaitPoint: while one goroutine spins for a shard's
// release, a second waiter blocks at once; the same for its slot tokens.
func TestOneSpinnerPerWaitPoint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	polled := false
	var gate atomic.Bool
	gate.Store(true)
	if spin(wallClock{}, &gate, time.Now(), func() bool { polled = true; return true }) || polled {
		t.Fatal("spin ran behind a taken gate")
	}
	if !gate.Load() {
		t.Fatal("a refused spinner released the gate it never held")
	}
	gate.Store(false)
	if !spin(wallClock{}, &gate, time.Now(), func() bool { return true }) || gate.Load() {
		t.Fatal("spin with a free gate and a true condition: want true and the gate released")
	}

	s := newTestServer(t, Options{Shards: 2, Workers: 2})
	ss := s.fleet()[0]
	ss.relSpinner.Store(true) // somebody is spinning for this shard's release
	spun := s.fenceWaitSpun.Load()
	woken := make(chan time.Duration, 1)
	go func() { d, _ := ss.awaitRelease(ss.relGen.Load(), 10*time.Second); woken <- d }()
	waitUntil(t, 2*time.Second, "the second waiter registered", func() bool { return ss.relWaiters.Load() == 1 })
	ss.fenceReleased()
	if d := <-woken; d > 5*time.Second {
		t.Fatalf("woken waiter took %v", d)
	}
	ss.relSpinner.Store(false)
	if got := s.fenceWaitSpun.Load(); got != spun {
		t.Fatalf("fence_wait_spun %d -> %d for a waiter that found the spinner place taken", spun, got)
	}

	ss.slotSpinner.Store(true)
	if ss.spinForSlot() {
		t.Fatal("a second submitter spun for a slot")
	}
	ss.slotSpinner.Store(false)
	if !ss.spinForSlot() {
		t.Fatal("an idle shard's token was not seen free")
	}
}

// TestSpinForSlot: a submitter that finds the shard's slot taken gets it
// without queueing when it comes back inside the spin budget. On a stepClock
// the slot comes back between two of the spin's polls.
func TestSpinForSlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	clk := newStepClock()
	s := newTestServerOn(t, Options{Workers: 1, Preload: 8, FenceDeadline: -1}, clk)
	ss := s.fleet()[0]
	before := s.StatusSnapshot().Ops
	slot := <-ss.tokens
	var returned atomic.Bool
	clk.onRead = func() {
		if ss.slotSpinner.Load() && returned.CompareAndSwap(false, true) {
			ss.tokens <- slot
		}
	}
	_, code := s.submit(ss, &request{op: opGet, key: 1})
	clk.onRead = nil
	if code != http.StatusOK {
		t.Fatalf("get = HTTP %d", code)
	}
	after := s.StatusSnapshot().Ops
	if after.LeaseSpins != before.LeaseSpins+1 || after.Direct != before.Direct+1 || after.Queued != before.Queued {
		t.Fatalf("lease_spins %d -> %d, direct %d -> %d, queued %d -> %d for an operation whose slot came free in its spin",
			before.LeaseSpins, after.LeaseSpins, before.Direct, after.Direct, before.Queued, after.Queued)
	}
}

// takeTokens leases every circulating slot token of ss, as if each were
// executing, and returns them.
func takeTokens(ss *shardState) []int {
	var ids []int
	for len(ss.tokens) > 0 {
		ids = append(ids, <-ss.tokens)
	}
	return ids
}

// waitParked polls until n goroutines are blocked in a shard's line — in
// lease's blocking select, which the waiting gauge alone cannot tell: it
// counts a request just before it blocks.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(2 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, ".(*shardState).lease(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests parked in line", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoSlotSpinBehindBacklog: with a request waiting in line a slot-less
// submitter joins the line without spinning, even for a token that is free
// — the waiter was there first — and the line serves in arrival order.
func TestNoSlotSpinBehindBacklog(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s, err := newServer(Options{Workers: 2, QueueDepth: 4, HeapWords: 1 << 18})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ss := s.fleet()[0]
	ss.unpark() // tokens circulate, but nothing leases them yet
	if !ss.spinForSlot() {
		t.Fatal("free token, empty line: the spin should see the token")
	}
	ss.waiting.Add(1)
	if ss.spinForSlot() {
		t.Fatal("spun for a slot with a request waiting in line")
	}
	ss.waiting.Add(-1)
	leased := takeTokens(ss)

	// A waits in line (after its spin: the line was empty), B finds A
	// waiting and joins behind it at once. Both put key 7, so B's Existed
	// and the value left behind tell the order they ran in.
	var wg sync.WaitGroup
	existed := make([]bool, 2)
	for i, val := range []uint64{11, 22} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, code := s.submit(ss, &request{op: opPut, key: 7, val: val})
			if code != http.StatusOK {
				t.Errorf("put %d = HTTP %d", val, code)
			}
			existed[i] = resp.Existed
		}()
		waitParked(t, i+1)
	}
	ss.release(leased[0]) // one slot: A and B run on it in turn
	wg.Wait()
	if existed[0] || !existed[1] {
		t.Fatalf("line order: existed A=%v B=%v, want A first (false, true)", existed[0], existed[1])
	}
	if resp, _ := s.submit(ss, &request{op: opGet, key: 7}); resp.Val != 22 {
		t.Fatalf("key 7 = %d after the line drained, want B's 22", resp.Val)
	}
	if got := s.leaseSpins.Load(); got != 0 {
		t.Fatalf("ops.lease_spins = %d with no token ever freed", got)
	}
	for _, id := range leased[1:] {
		ss.tokens <- id
	}
	s.startServing()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestControlStepJumpsTheLine: a returned slot goes to a control step
// waiting in line before a data operation that was there first — the
// priority that keeps fence releases from queuing behind data operations.
func TestControlStepJumpsTheLine(t *testing.T) {
	s, err := newServer(Options{Workers: 2, QueueDepth: 4, HeapWords: 1 << 18})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ss := s.fleet()[0]
	ss.unpark()
	leased := takeTokens(ss)

	data := make(chan int, 1)
	go func() {
		_, code := s.submit(ss, &request{op: opPut, key: 1, val: 1})
		data <- code
	}()
	waitParked(t, 1)
	// The step records what it sees when it runs: the data operation still
	// in line, its put not applied.
	var dataWaiting, dataApplied bool
	ctl := make(chan response, 1)
	go func() {
		ctl <- s.ctl(ss, func(tx proteustm.Txn, _ int) response {
			_, dataApplied = ss.store.Get(tx, 1)
			dataWaiting = ss.waiting.Load() == 1 && len(data) == 0
			return response{Applied: true}
		})
	}()
	waitParked(t, 2)

	ss.release(leased[0])
	select {
	case r := <-ctl:
		if !r.Applied || r.Err != "" {
			t.Fatalf("control step = %+v, want applied", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the returned slot did not reach the control step")
	}
	if !dataWaiting || dataApplied {
		t.Fatalf("when the control step ran: data operation waiting=%v applied=%v, want true, false", dataWaiting, dataApplied)
	}
	if code := <-data; code != http.StatusOK {
		t.Fatalf("data operation = HTTP %d after the control step", code)
	}
	if st := s.StatusSnapshot(); st.Ops.Queued != 2 || st.Ops.Direct != 0 {
		t.Fatalf("ops.queued=%d ops.direct=%d, want 2 and 0", st.Ops.Queued, st.Ops.Direct)
	}
	for _, id := range leased[1:] {
		ss.tokens <- id
	}
	s.startServing()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRetiringShardBouncesItsLine: the requests waiting in the line of a
// shard that retires leave it on the closed stop with stopAnswer's bounce —
// the data operation re-routes (moved), the control step reports
// not-applied without an error — and neither executes.
func TestRetiringShardBouncesItsLine(t *testing.T) {
	s, err := newServer(Options{Workers: 2, QueueDepth: 4, HeapWords: 1 << 18})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ss := s.fleet()[0]
	ss.unpark()
	leased := takeTokens(ss)

	data := make(chan response, 1)
	go func() {
		resp, _ := s.submit(ss, &request{op: opPut, key: 1, val: 1})
		data <- resp
	}()
	waitParked(t, 1)
	var stepRan atomic.Bool
	ctl := make(chan response, 1)
	go func() {
		ctl <- s.ctl(ss, func(proteustm.Txn, int) response {
			stepRan.Store(true)
			return response{Applied: true}
		})
	}()
	waitParked(t, 2)

	ss.retiring.Store(true)
	close(ss.stop)
	if r := <-data; !r.moved || r.Err != "" {
		t.Fatalf("data operation in a retiring shard's line = %+v, want a moved bounce", r)
	}
	if r := <-ctl; r.Applied || r.Err != "" {
		t.Fatalf("control step in a retiring shard's line = %+v, want not-applied without an error", r)
	}
	if stepRan.Load() || s.totalServed() != 0 {
		t.Fatalf("step ran=%v served=%d on a retiring shard, want neither", stepRan.Load(), s.totalServed())
	}
	if n := ss.waiting.Load(); n != 0 {
		t.Fatalf("%d requests still counted in line", n)
	}
	for _, id := range leased {
		ss.tokens <- id
	}
	ss.quiesce()
	if err := ss.sys.Close(); err != nil {
		t.Fatalf("closing the shard's system: %v", err)
	}
}

// TestNoSpinOnOneP: on a single P whoever would end the wait needs the P
// the spinner holds, so neither spin runs.
func TestNoSpinOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	polled := false
	var gate atomic.Bool
	if spin(wallClock{}, &gate, time.Now(), func() bool { polled = true; return true }) || polled {
		t.Fatal("spin ran on one P")
	}
	s := newTestServer(t, Options{Shards: 2, Workers: 2})
	ss := s.fleet()[0]
	if ss.spinForSlot() {
		t.Fatal("spun for a slot on one P")
	}
	// The release already landed, yet the wait goes the registering way.
	ss.fenceReleased()
	if _, timedOut := ss.awaitRelease(ss.relGen.Load()-1, 10*time.Second); timedOut {
		t.Fatal("a wait on a passed generation ran into its bound")
	}
	if st := s.StatusSnapshot(); st.Ops.FenceWaits != 1 || st.Ops.FenceWaitSpun != 0 || st.Ops.LeaseSpins != 0 {
		t.Fatalf("fence_waits=%d fence_wait_spun=%d lease_spins=%d on one P, want 1, 0, 0",
			st.Ops.FenceWaits, st.Ops.FenceWaitSpun, st.Ops.LeaseSpins)
	}
}

// TestMissedWakeupDegradesToPolling clears a fence behind the protocol's
// back — a raw heap store, so no release step runs and no wake-up is ever
// sent. The fenced operation must still finish within its polling bound,
// and an aborted coordinator's measured wait is what cross_backoff_ms
// reports.
func TestMissedWakeupDegradesToPolling(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2, Workers: 2, CrossRetries: 3})
	victim := s.fleet()[1]
	keys := keysOnDistinctShards(t, s, 2)
	wedgeFence(victim, 7)

	done := make(chan struct{})
	go func() {
		defer close(done)
		var k uint64
		for s.part().Owner(k) != 1 {
			k++
		}
		if resp, code := s.submit(victim, &request{op: opPut, key: k, val: 1}); code != http.StatusOK || !resp.Applied {
			t.Errorf("fenced put = %d %+v", code, resp)
		}
	}()
	waitUntil(t, 5*time.Second, "a wait to run out unwoken", func() bool { return s.fenceWaitTimeouts.Load() > 0 })

	// A coordinator meets the same wedge: it aborts, waits on the blocking
	// shard twice (CrossRetries 3) and gives up.
	if _, code := s.submitRouted(&request{op: opMPut, keys: keys, vals: []uint64{1, 2}}); code != http.StatusServiceUnavailable {
		t.Fatalf("mput against a wedged fence = %d, want 503", code)
	}
	st := s.StatusSnapshot()
	if st.Ops.CrossAborts != 3 || st.Ops.CrossBackoffMs <= 0 || st.Ops.CrossBackoffMs > st.Ops.FenceWaitMs {
		t.Fatalf("cross_aborts=%d cross_backoff_ms=%v fence_wait_ms=%v: want 3 aborts and a measured backoff inside the fence waits",
			st.Ops.CrossAborts, st.Ops.CrossBackoffMs, st.Ops.FenceWaitMs)
	}

	cleared := time.Now()
	unwedgeFence(victim)
	select {
	case <-done:
		if d := time.Since(cleared); d > time.Second {
			t.Fatalf("fenced op finished %v after the fence cleared; the bound is %v per wait", d, fencedYield)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fenced op never finished without a wake-up")
	}
}

// TestCanceledAtAdmissionTakesNoQueueSlot: an operation whose client is
// already gone is answered 499 and counted before admission — it never
// takes a place in line (here nothing serves it, so it would wait forever).
func TestCanceledAtAdmissionTakesNoQueueSlot(t *testing.T) {
	s, err := newServer(Options{Workers: 2, QueueDepth: 4, HeapWords: 1 << 18})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ss := s.fleet()[0]
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, code := s.submit(ss, &request{op: opPut, key: 1, val: 1, ctx: dead}); code != 499 {
		t.Fatalf("dead-on-arrival put = HTTP %d, want 499", code)
	}
	if ss.waiting.Load() != 0 || s.shedDeadline.Load() != 1 || ss.routed.Load() != 0 {
		t.Fatalf("queue_len=%d shed_deadline=%d ops_routed=%d, want 0, 1, 0", ss.waiting.Load(), s.shedDeadline.Load(), ss.routed.Load())
	}

	// A live operation on the unstarted server waits in line; once the
	// shard serves, the same operation runs directly.
	parked := make(chan int, 1)
	go func() {
		_, code := s.submit(ss, &request{op: opPut, key: 2, val: 2})
		parked <- code
	}()
	waitQueueLen(t, ss, 1)
	s.startServing()
	if code := <-parked; code != http.StatusOK {
		t.Fatalf("queued put = HTTP %d", code)
	}
	if _, code := s.submit(ss, &request{op: opGet, key: 2}); code != http.StatusOK {
		t.Fatalf("direct get = HTTP %d", code)
	}
	if st := s.StatusSnapshot(); st.Ops.Queued != 1 || st.Ops.Direct != 1 {
		t.Fatalf("ops.queued=%d ops.direct=%d, want 1 and 1", st.Ops.Queued, st.Ops.Direct)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRetireBarrier: stragglers holding a pre-merge reference to the
// donor keep throwing control steps and data operations at it while a
// merge retires it. Once retireShard has returned nothing may execute on
// the donor — its system is closed — yet every straggler is still
// answered.
func TestRetireBarrier(t *testing.T) {
	s := newTestServer(t, Options{Shards: 3, Workers: 2, Partitioner: shard.KindRange, Preload: 3072, KeyUniverse: 3072})
	heatAllBut(s, 2, 1<<40) // the stragglers' own traffic must not make the donor look warm
	donor := s.fleet()[2]

	var stop atomic.Bool
	var late, ran atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if c%2 == 0 {
					s.ctl(donor, func(proteustm.Txn, int) response {
						ran.Add(1)
						if donor.retired.Load() {
							late.Add(1)
						}
						return response{}
					})
				} else {
					s.submit(donor, &request{op: opGet, key: uint64(2048 + i%1024)})
				}
			}
		}(c)
	}
	waitUntil(t, 5*time.Second, "straggler traffic on the donor", func() bool { return ran.Load() > 100 })
	res, code := s.ReshardMerge()
	if code != http.StatusOK || !res.Applied {
		t.Fatalf("merge = %d %+v", code, res)
	}
	if !donor.retired.Load() {
		t.Fatal("donor not retired after the merge")
	}
	if circulating, parked := tokenCensus(donor); circulating != 0 || parked != 0 {
		t.Fatalf("retired donor still has %d circulating and %d parked tokens", circulating, parked)
	}
	time.Sleep(20 * time.Millisecond) // stragglers keep arriving at the retired shard
	stop.Store(true)
	wg.Wait()
	if n := late.Load(); n > 0 {
		t.Fatalf("%d control steps executed on the donor after it retired", n)
	}
}

// TestCoordinatorStormExhaustsNoRetries: eight coordinators commit batches
// over the same two shards from two Ps, beside local writers, while a
// migration-style whole-shard hold of 5 ms comes and goes. A coordinator woken
// by somebody else's release retries within microseconds, so a retry budget
// counted in attempts would drain in a fraction of the time it was sized
// for; nothing here may run out of one.
func TestCoordinatorStormExhaustsNoRetries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := newTestServer(t, Options{Shards: 2, Workers: 2, Preload: 512})
	var byShard [2][]uint64
	for k := uint64(0); k < 512; k++ {
		o := s.part().Owner(k)
		byShard[o] = append(byShard[o], k)
	}

	const coordinators, batches = 8, 20000
	var next, failed atomic.Int64
	var exhausted, heldTooLong atomic.Uint64
	book := func(resp response, code int) {
		if code == http.StatusOK {
			return
		}
		failed.Add(1)
		switch resp.Err {
		case "cross-shard commit: fence contention exhausted retries":
			exhausted.Add(1)
		case "shard fence held too long":
			heldTooLong.Add(1)
		default:
			t.Errorf("operation failed: %d %+v", code, resp)
		}
	}
	var stop atomic.Bool
	var storm, side sync.WaitGroup
	for c := 0; c < coordinators; c++ {
		storm.Add(1)
		go func(c int) {
			defer storm.Done()
			for i := next.Add(1); i <= batches; i = next.Add(1) {
				a, b := byShard[0], byShard[1]
				book(s.submitRouted(&request{op: opMPut,
					keys: []uint64{a[int(i)%len(a)], b[(int(i)+c)%len(b)]}, vals: []uint64{uint64(i), uint64(i)}}))
			}
		}(c)
	}
	for w := 0; w < 2; w++ {
		side.Add(1)
		go func(w int) {
			defer side.Done()
			for i := 0; !stop.Load(); i++ {
				book(s.submitRouted(&request{op: opPut, key: byShard[w][i%len(byShard[w])], val: uint64(i)}))
			}
		}(w)
	}
	side.Add(1)
	go func() {
		defer side.Done()
		donor := s.fleet()[1]
		for !stop.Load() {
			hold, err := s.acquireMigrationFence(donor, s.nextToken.Add(1))
			if err != nil {
				t.Errorf("whole-shard hold: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
			s.guarded(donor, hold, true, nil)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	storm.Wait()
	stop.Store(true)
	side.Wait()
	if exhausted.Load() > 0 || heldTooLong.Load() > 0 || failed.Load() > 0 {
		t.Fatalf("%d operations failed: %d coordinators exhausted their retries, %d local operations gave up on a held fence",
			failed.Load(), exhausted.Load(), heldTooLong.Load())
	}
	st := s.StatusSnapshot()
	t.Logf("cross_ops=%d cross_aborts=%d fence_waits=%d spun=%d timeouts=%d fenced_requeues=%d lease_spins=%d queued=%d",
		st.Ops.CrossOps, st.Ops.CrossAborts, st.Ops.FenceWaits, st.Ops.FenceWaitSpun, st.Ops.FenceWaitTimeouts, st.Ops.Fenced, st.Ops.LeaseSpins, st.Ops.Queued)
}
