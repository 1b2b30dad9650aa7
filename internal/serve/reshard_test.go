package serve

// Live-resharding battery: the split-and-migrate step driven end to end —
// plan shape and deque clamping, the admin surface, full-space key
// preservation across a split, and the centerpiece: linearizability of
// concurrent traffic racing a live split under both injected migrator
// crashes.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	proteustm "repro"
	"repro/internal/shard"
)

// TestRerouteKeepsFirstAdmission pins submitRouted's re-route. A request
// waiting in its owner's line when the placement flips under it — here from
// the range partitioner to hashing, so keys change owners — bounces exactly
// once, is answered under the live placement, and keeps the admission
// instant and deadline it got first. Legs: a point op and a single-shard
// mput (bounced by the shard's epoch gate), a cross-shard mput and a
// cross-shard scan (bounced by the protocol's post-acquire epoch re-check).
func TestRerouteKeepsFirstAdmission(t *testing.T) {
	const universe = 1024
	before, after := shard.NewRange(2, universe), shard.New(2)
	// moving returns n keys owned by shard from before the flip and by
	// shard to after it.
	moving := func(n, from, to int) []uint64 {
		var keys []uint64
		for k := uint64(0); len(keys) < n && k < universe; k++ {
			if before.Owner(k) == from && after.Owner(k) == to {
				keys = append(keys, k)
			}
		}
		if len(keys) < n {
			t.Fatalf("found %d keys moving from shard %d to %d, want %d", len(keys), from, to, n)
		}
		return keys
	}
	const lo, hi = 500, 531 // straddles the range partitioner's cut at 512
	for _, leg := range []struct {
		name string
		req  *request
	}{
		{"point", &request{op: opPut, key: moving(1, 0, 1)[0], val: 1 << 40}},
		{"mput-single", &request{op: opMPut, keys: moving(2, 0, 1), vals: []uint64{1 << 40, 1<<40 + 1}}},
		{"mput-cross", &request{op: opMPut, keys: append(moving(1, 0, 1), moving(1, 1, 0)...), vals: []uint64{1 << 40, 1<<40 + 1}}},
		{"range", &request{op: opRange, lo: lo, hi: hi}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			s, err := newServer(Options{Shards: 2, Partitioner: shard.KindRange, KeyUniverse: universe,
				Workers: 2, HeapWords: 1 << 18, Preload: universe, Deadline: time.Minute})
			if err != nil {
				t.Fatalf("newServer: %v", err)
			}
			req := leg.req
			type answer struct {
				resp response
				code int
			}
			done := make(chan answer, 1)
			go func() {
				resp, code := s.submitRouted(req)
				done <- answer{resp, code}
			}()
			// No slot token circulates yet: the request (or its first fence
			// acquisition) waits in line, already stamped.
			deadline := time.Now().Add(2 * time.Second)
			for s.fleet()[0].waiting.Load()+s.fleet()[1].waiting.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the request never reached a line")
				}
				time.Sleep(time.Millisecond)
			}
			accepted, due := req.accepted, req.deadline
			if accepted.IsZero() {
				t.Fatal("request waits in line unstamped")
			}
			epoch := s.place.Install(after)
			for _, ss := range s.fleet() {
				ss.sys.Store(ss.store.PlacementWord(), epoch)
			}
			s.startServing()
			t.Cleanup(func() {
				if err := s.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
			got := <-done
			if got.code != http.StatusOK {
				t.Fatalf("HTTP %d %+v", got.code, got.resp)
			}
			if n := s.movedBounces.Load(); n != 1 {
				t.Fatalf("moved_bounces = %d, want 1", n)
			}
			if req.routingEpoch != epoch {
				t.Fatalf("answered under placement epoch %d, want the live %d", req.routingEpoch, epoch)
			}
			if !req.accepted.Equal(accepted) || !req.deadline.Equal(due) {
				t.Fatalf("bounce re-stamped the request: accepted %v → %v, deadline %v → %v",
					accepted, req.accepted, due, req.deadline)
			}
			// get reads key k on shard o under the live placement.
			get := func(o int, k uint64) uint64 {
				resp, code := s.submit(s.fleet()[o], &request{op: opGet, key: k, routingEpoch: epoch})
				if code != http.StatusOK || !resp.Found {
					t.Fatalf("get %d on shard %d = HTTP %d %+v", k, o, code, resp)
				}
				return resp.Val
			}
			switch req.op {
			case opRange:
				if want := uint64(hi - lo + 1); got.resp.Count != want || got.resp.Sum != (lo+hi)*want/2 {
					t.Fatalf("scan [%d, %d] = count %d sum %d, want %d and %d", lo, hi, got.resp.Count, got.resp.Sum, want, (lo+hi)*want/2)
				}
			default:
				keys, vals := req.keys, req.vals
				if req.op == opPut {
					keys, vals = []uint64{req.key}, []uint64{req.val}
				}
				// Each write landed on its owner after the flip; the owner
				// before it still holds the preloaded value.
				for i, k := range keys {
					if v := get(after.Owner(k), k); v != vals[i] {
						t.Fatalf("key %d on its live owner = %d, want %d", k, v, vals[i])
					}
					if v := get(before.Owner(k), k); v != k {
						t.Fatalf("key %d on its former owner = %d, want the preloaded %d", k, v, k)
					}
				}
			}
		})
	}
}

// TestClampPlanForDeque pins the deque guard's three arms: a moved span
// reaching into the reserved window is trimmed (the window stays with the
// donor via a tail span), a span entirely inside it is rejected, and a
// span below it passes through untouched.
func TestClampPlanForDeque(t *testing.T) {
	// A single-shard range partitioner's only span runs to 2^64-1, so its
	// split plan always reaches the reserved window — the clamp's
	// mainline.
	rp := shard.NewRange(1, 16384)
	plan, ok := rp.PlanSplitHeaviest([]uint64{10})
	if !ok {
		t.Fatal("single-shard plan unexpectedly declined")
	}
	if plan.MovedHi != ^uint64(0) {
		t.Fatalf("top-span plan MovedHi = %d, want 2^64-1", plan.MovedHi)
	}
	clamped, err := clampPlanForDeque(plan)
	if err != nil {
		t.Fatalf("clamp rejected a top-span plan: %v", err)
	}
	if clamped.MovedHi != DequeReservedLo-1 {
		t.Fatalf("clamped MovedHi = %d, want %d", clamped.MovedHi, uint64(DequeReservedLo-1))
	}
	if got := clamped.Next.Owner(DequeReservedLo); got != plan.Donor {
		t.Fatalf("reserved-window bottom owned by shard %d after clamp, want donor %d", got, plan.Donor)
	}
	if got := clamped.Next.Owner(^uint64(0)); got != plan.Donor {
		t.Fatalf("reserved-window top owned by shard %d after clamp, want donor %d", got, plan.Donor)
	}
	if got := clamped.Next.Owner(clamped.MovedLo); got != plan.Recipient {
		t.Fatalf("moved span owned by shard %d after clamp, want %d", got, plan.Recipient)
	}

	// A plan entirely inside the reserved window must be rejected, not
	// clamped into a degenerate span.
	inside := shard.MovePlan{Donor: 0, Recipient: 1, MovedLo: DequeReservedLo + 1, MovedHi: ^uint64(0)}
	if _, err := clampPlanForDeque(inside); err == nil {
		t.Fatal("plan inside the deque-reserved window was not rejected")
	}

	// A plan strictly below the window passes through unchanged.
	rp4 := shard.NewRange(4, 16384)
	below, ok := rp4.PlanSplitHeaviest([]uint64{9, 1, 1, 1})
	if !ok {
		t.Fatal("4-shard plan unexpectedly declined")
	}
	got, err := clampPlanForDeque(below)
	if err != nil {
		t.Fatalf("clamp rejected a below-window plan: %v", err)
	}
	if got.MovedLo != below.MovedLo || got.MovedHi != below.MovedHi || got.Next != below.Next {
		t.Fatalf("below-window plan was altered: %+v -> %+v", below, got)
	}
}

// TestReshardAdminSurface pins the endpoint contract: POST-only, 400 on a
// non-range partitioner, and the explicit applied=false no-op on zero
// load.
func TestReshardAdminSurface(t *testing.T) {
	hash := newTestServer(t, Options{Shards: 2, Workers: 2})
	res, code := hash.Reshard()
	if code != http.StatusBadRequest || !strings.Contains(res.Err, "range partitioner") {
		t.Fatalf("reshard on hash partitioner = %d %+v, want 400", code, res)
	}

	s := newTestServer(t, Options{Shards: 2, Workers: 2, Partitioner: shard.KindRange})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/admin/reshard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reshard = %d, want 405", resp.StatusCode)
	}

	// Zero load: the planner declines and the server reports the no-op
	// instead of installing a degenerate plan (satellite: PlanSplitHeaviest
	// callers must handle ok=false).
	res, code = s.Reshard()
	if code != http.StatusOK || res.Applied || res.Reason == "" {
		t.Fatalf("zero-load reshard = %d %+v, want applied=false with a reason", code, res)
	}
	if got := s.part().Shards(); got != 2 {
		t.Fatalf("no-op reshard changed the placement to %d shards", got)
	}
	if got := s.place.Epoch(); got != 0 {
		t.Fatalf("no-op reshard moved the placement epoch to %d", got)
	}
}

// TestReshardReplies pins the whole /admin/reshard reply — every field
// of reshardResult and the status code — for each outcome of both plan
// directions on a preloaded 2-shard range server: applied (a top-span
// split clamped around the deque window too), the planner's explicit
// no-op, a hash server (400) and a reshard already in progress
// (409).
func TestReshardReplies(t *testing.T) {
	const busy = "a reshard is already in progress"
	noRange := `resharding requires the range partitioner (have "hash")`
	for _, tc := range []struct {
		name, plan string
		hash, held bool
		heat       []uint64 // routed ops added per shard before the call
		code       int
		want       reshardResult
	}{
		{name: "split-applied", plan: "split", heat: []uint64{10_000, 0}, code: http.StatusOK,
			want: reshardResult{Plan: "split", Applied: true, Epoch: 1, Donor: 0, NewShard: 2,
				MovedLo: 4096, MovedHi: 8191, KeysMigrated: 4096, Shards: 3}},
		{name: "split-top-clamped", plan: "split", heat: []uint64{0, 10_000}, code: http.StatusOK,
			want: reshardResult{Plan: "split", Applied: true, Epoch: 1, Donor: 1, NewShard: 2,
				MovedLo: 12288, MovedHi: DequeReservedLo - 1, KeysMigrated: 4096, Shards: 3}},
		{name: "merge-applied", plan: "merge", heat: []uint64{10_000, 0}, code: http.StatusOK,
			want: reshardResult{Plan: "merge", Applied: true, Epoch: 1, Donor: 1, Recipient: 0,
				MovedLo: 8192, MovedHi: ^uint64(0), KeysMigrated: 8192, Shards: 1}},
		{name: "split-zero-load", plan: "split", code: http.StatusOK,
			want: reshardResult{Plan: "split", Reason: "no splittable span (zero load or heaviest span too narrow)", Shards: 2}},
		{name: "merge-hot-top", plan: "merge", heat: []uint64{0, 10_000}, code: http.StatusOK,
			want: reshardResult{Plan: "merge", Reason: "no mergeable span (single shard or top shard not coldest)", Shards: 2}},
		{name: "split-hash", plan: "split", hash: true, code: http.StatusBadRequest,
			want: reshardResult{Plan: "split", Err: noRange}},
		{name: "merge-hash", plan: "merge", hash: true, code: http.StatusBadRequest,
			want: reshardResult{Plan: "merge", Err: noRange}},
		{name: "split-busy", plan: "split", held: true, code: http.StatusConflict,
			want: reshardResult{Plan: "split", Err: busy}},
		{name: "merge-busy", plan: "merge", held: true, code: http.StatusConflict,
			want: reshardResult{Plan: "merge", Err: busy}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Shards: 2, Workers: 2, Partitioner: shard.KindRange, Preload: 16384}
			if tc.hash {
				opts.Partitioner = shard.KindHash
			}
			s := newTestServer(t, opts)
			for i, n := range tc.heat {
				s.fleet()[i].routed.Add(n)
			}
			if tc.held {
				s.reshardMu.Lock()
				defer s.reshardMu.Unlock()
			}
			ts := httptest.NewServer(s)
			defer ts.Close()
			resp, err := http.Post(ts.URL+"/admin/reshard", "application/json",
				strings.NewReader(`{"plan":"`+tc.plan+`"}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got reshardResult
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code || got != tc.want {
				t.Fatalf("POST /admin/reshard %s = %d %+v, want %d %+v", tc.plan, resp.StatusCode, got, tc.code, tc.want)
			}
		})
	}
}

// TestReshardMigratesSpan is the mainline: a preloaded 4-shard range
// daemon splits its hottest shard live; every key keeps its value, the
// moved span lands on the new shard, and the observables line up.
func TestReshardMigratesSpan(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 4, Workers: 2, Partitioner: shard.KindRange, Preload: 8192,
	})
	// Make shard 0 the unambiguous hotspot. With 4 even spans over the
	// 16384-key universe, shard 0's span is [0, 4096) and the split moves
	// [2048, 4095] to the new shard 4.
	s.fleet()[0].routed.Add(10_000)

	res, code := s.Reshard()
	if code != http.StatusOK || !res.Applied {
		t.Fatalf("reshard = %d %+v", code, res)
	}
	if res.Donor != 0 || res.NewShard != 4 || res.MovedLo != 2048 || res.MovedHi != 4095 {
		t.Fatalf("unexpected plan: %+v", res)
	}
	if res.KeysMigrated != 2048 {
		t.Fatalf("keys_migrated = %d, want 2048 (preloaded span population)", res.KeysMigrated)
	}
	if res.Epoch != 1 || s.place.Epoch() != 1 {
		t.Fatalf("placement epoch = %d/%d, want 1", res.Epoch, s.place.Epoch())
	}
	if got := s.part().Owner(3000); got != 4 {
		t.Fatalf("moved key 3000 owned by shard %d, want 4", got)
	}
	if got := s.part().Owner(1000); got != 0 {
		t.Fatalf("retained key 1000 owned by shard %d, want donor 0", got)
	}
	waitUntil(t, 2*time.Second, "fences free after reshard", func() bool { return fencesFree(s) })

	// Every preloaded key must still read its value through the normal
	// routed path — donor-retained, moved, and untouched shards alike.
	for _, k := range []uint64{0, 1000, 2047, 2048, 3000, 4095, 4096, 8000, 8191} {
		resp, code := s.submitRouted(&request{op: opGet, key: k})
		if code != http.StatusOK || !resp.Found || resp.Val != k {
			t.Fatalf("post-reshard get(%d) = %d %+v", k, code, resp)
		}
	}
	// The donor must have dropped the moved span: a range scan over the
	// whole preload counts each key exactly once.
	resp, code := s.submitRouted(&request{op: opRange, lo: 0, hi: 8191})
	if code != http.StatusOK || resp.Count != 8192 {
		t.Fatalf("post-reshard full scan = %d %+v, want count 8192", code, resp)
	}

	st := s.StatusSnapshot()
	if st.Server.Shards != 5 || st.Server.PartitionerEpoch != 1 || st.Server.Resharding {
		t.Fatalf("statusz after reshard: %+v", st.Server)
	}
	if len(st.Server.SpanStarts) != 5 || len(st.Server.SpanOwners) != 5 {
		t.Fatalf("span table after reshard: starts=%v owners=%v, want 5 spans", st.Server.SpanStarts, st.Server.SpanOwners)
	}
	if st.Ops.Reshards != 1 || st.Ops.KeysMigrated != 2048 {
		t.Fatalf("ops counters after reshard: reshards=%d keys_migrated=%d", st.Ops.Reshards, st.Ops.KeysMigrated)
	}
	for _, sh := range st.Shards {
		if sh.FenceHeld {
			t.Fatalf("shard %d fence still held after reshard", sh.Index)
		}
	}

	// A second split keeps working (the epoch keeps advancing), and the
	// deque — pinned to shard 0 — stays fully functional throughout.
	s.fleet()[1].routed.Add(50_000)
	res2, code := s.Reshard()
	if code != http.StatusOK || !res2.Applied || res2.Epoch != 2 {
		t.Fatalf("second reshard = %d %+v", code, res2)
	}
	if resp, code := s.submitRouted(&request{op: opRPush, val: 77}); code != http.StatusOK || !resp.Applied {
		t.Fatalf("rpush after two reshards = %d %+v", code, resp)
	}
	if resp, code := s.submitRouted(&request{op: opLPop}); code != http.StatusOK || !resp.Found || resp.Val != 77 {
		t.Fatalf("lpop after two reshards = %d %+v", code, resp)
	}
}

// TestReshardPreservesDeque pins the deque guard end to end: splitting a
// single-shard daemon necessarily plans the top span, the clamp trims the
// moved interval below the reserved window, and the deque's contents
// survive the migration bit-for-bit.
func TestReshardPreservesDeque(t *testing.T) {
	s := newTestServer(t, Options{Shards: 1, Workers: 2, Partitioner: shard.KindRange, Preload: 256})
	for _, v := range []uint64{11, 22, 33} {
		if resp, code := s.submitRouted(&request{op: opRPush, val: v}); code != http.StatusOK || !resp.Applied {
			t.Fatalf("rpush(%d) = %d %+v", v, code, resp)
		}
	}
	s.fleet()[0].routed.Add(5_000)

	res, code := s.Reshard()
	if code != http.StatusOK || !res.Applied {
		t.Fatalf("reshard = %d %+v", code, res)
	}
	if res.MovedHi != DequeReservedLo-1 {
		t.Fatalf("moved_hi = %d, want clamped to %d (deque-reserved window intact)", res.MovedHi, uint64(DequeReservedLo-1))
	}
	if got := s.part().Owner(DequeReservedLo); got != dequeHome {
		t.Fatalf("deque-reserved window owned by shard %d after reshard, want %d", got, dequeHome)
	}
	if resp, code := s.submitRouted(&request{op: opLLen}); code != http.StatusOK || resp.Len != 3 {
		t.Fatalf("deque len after reshard = %d %+v, want 3", code, resp)
	}
	for _, want := range []uint64{11, 22, 33} {
		resp, code := s.submitRouted(&request{op: opLPop})
		if code != http.StatusOK || !resp.Found || resp.Val != want {
			t.Fatalf("lpop after reshard = %d %+v, want %d", code, resp, want)
		}
	}
}

// TestAutosplit pins the background trigger: once the hottest shard's
// routed share crosses the threshold, the daemon splits it without an
// admin call — and stops at the shard-count ceiling.
func TestAutosplit(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 2, Workers: 2, Partitioner: shard.KindRange, Preload: 1024,
		AutosplitShare: 0.6, AutosplitMaxShards: 3,
	})
	s.fleet()[0].routed.Add(10_000)
	s.maintain()
	if got := s.part().Shards(); got != 3 {
		t.Fatalf("autosplit left %d shards after a hot tick, want a split (3)", got)
	}
	if got := s.place.Epoch(); got != 1 {
		t.Fatalf("placement epoch after autosplit = %d, want 1", got)
	}
	// The ceiling holds even though shard 0's fresh load is still dominant.
	s.fleet()[0].routed.Add(10_000)
	s.maintain()
	if got := s.part().Shards(); got != 3 {
		t.Fatalf("autosplit overshot the ceiling: %d shards", got)
	}
	waitUntil(t, 2*time.Second, "fences free after autosplit", func() bool { return fencesFree(s) })
	for _, k := range []uint64{0, 500, 1023} {
		resp, code := s.submitRouted(&request{op: opGet, key: k})
		if code != http.StatusOK || !resp.Found || resp.Val != k {
			t.Fatalf("post-autosplit get(%d) = %d %+v", k, code, resp)
		}
	}
}

// TestAutosplitJudgesLoadSinceLastSplit: once a split has cooled the
// hotspot, even load must not split the fleet again. The trigger judges
// the operations routed since the last split, not the cumulative counters
// in which the old hotspot still dominates.
func TestAutosplitJudgesLoadSinceLastSplit(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 2, Workers: 2, Partitioner: shard.KindRange, Preload: 1024,
		AutosplitShare: 0.6, AutosplitMaxShards: 6,
	})
	s.fleet()[0].routed.Add(10_000)
	s.maintain()
	if got := s.part().Shards(); got != 3 {
		t.Fatalf("autosplit left %d shards after a hot tick, want a split (3)", got)
	}
	for tick := 0; tick < 3; tick++ {
		for _, ss := range s.fleet() {
			ss.routed.Add(600)
		}
		s.maintain()
		if got := s.part().Shards(); got != 3 {
			t.Fatalf("tick %d of even load: %d shards, want 3 (the cooled hotspot was split again)", tick, got)
		}
	}
	// A new hotspot still splits.
	s.fleet()[1].routed.Add(10_000)
	s.maintain()
	if got := s.part().Shards(); got != 4 {
		t.Fatalf("autosplit left %d shards after a new hotspot, want 4", got)
	}
}

// keysOn counts (and sums the values of) the keys of [lo, hi] that shard ss
// physically holds, whatever the placement says.
func keysOn(s *Server, ss *shardState, lo, hi uint64) (count, sum uint64) {
	r := s.ctl(ss, func(tx proteustm.Txn, _ int) (r response) {
		r.Count, r.Sum = ss.store.Range(tx, lo, hi)
		return r
	})
	return r.Count, r.Sum
}

// TestCrashedSplitRollsBackItsCopy pins what a crashed split leaves: its
// recipient, partial copy and all, has left the fleet by the time the
// reshard returns, while the move's record and the donor's orphaned fence
// stay for fence recovery, which finds no recipient to clear and releases
// the donor. A key census — the routed full scan and the keys the fleet
// physically holds — stays exact through split -> crash -> recovery ->
// retry -> merge.
func TestCrashedSplitRollsBackItsCopy(t *testing.T) {
	const preload = 8192
	for _, leg := range []struct{ name, fault string }{
		{"donor-crash", "reshard-donor-crash@after=3;count=1"},
		{"install-crash", "reshard-install-crash@count=1"},
	} {
		t.Run(leg.name, func(t *testing.T) {
			// Detection disabled: the recovery is driven by hand, so the
			// crashed state can be inspected first.
			s := newTestServer(t, Options{
				Shards: 4, Workers: 2, Partitioner: shard.KindRange, Preload: preload,
				FenceDeadline: -1, Fault: mustFault(t, leg.fault, 1),
			})
			physical := func(when string) {
				t.Helper()
				var n uint64
				for _, ss := range s.fleet() {
					k, _ := keysOn(s, ss, 0, ^uint64(0))
					n += k
				}
				if n != preload {
					t.Fatalf("%s: the shards hold %d keys between them, want %d (a stray copy survives)", when, n, preload)
				}
			}
			census := func(when string) {
				t.Helper()
				resp, code := s.submitRouted(&request{op: opRange, lo: 0, hi: ^uint64(0)})
				if code != http.StatusOK || resp.Count != preload || resp.Sum != preload*(preload-1)/2 {
					t.Fatalf("%s: full scan = %d count %d sum %d, want %d keys summing to %d",
						when, code, resp.Count, resp.Sum, preload, preload*(preload-1)/2)
				}
				physical(when)
			}
			s.fleet()[0].routed.Add(10_000)
			res, code := s.Reshard()
			if code != http.StatusServiceUnavailable || !strings.Contains(res.Err, "injected fault") {
				t.Fatalf("faulted reshard = %d %+v, want 503 with the injected-fault error", code, res)
			}
			if n, w := len(s.fleet()), s.part().Shards(); n != w || res.NewShard != w {
				t.Fatalf("after the crash: fleet = %d over a %d-shard placement, recipient %d; want the recipient gone",
					n, w, res.NewShard)
			}
			// A routed scan is refused behind the donor's orphaned fence;
			// the physical count reads the shards directly.
			physical("after the crash")
			donor := s.fleet()[res.Donor]
			orphan := holderOf(donor, 0)
			if orphan.Token == 0 {
				t.Fatal("the crashed migrator left no fence held on the donor")
			}
			s.recoverOrphan(donor, orphan)
			s.migMu.Lock()
			rec := s.activeMig
			s.migMu.Unlock()
			if rec != nil || !fencesFree(s) {
				t.Fatalf("after recovery: move record %+v, fences free %v; want the record cleared and the donor free", rec, fencesFree(s))
			}
			census("after recovery")

			if res, code = s.Reshard(); code != http.StatusOK || !res.Applied || res.KeysMigrated != 2048 {
				t.Fatalf("reshard retry after rollback = %d %+v", code, res)
			}
			census("after the retried split")

			heatAllBut(s, res.NewShard, 50_000)
			if res, code = s.ReshardMerge(); code != http.StatusOK || !res.Applied || res.KeysMigrated != 2048 {
				t.Fatalf("merge after the split = %d %+v", code, res)
			}
			if got := len(s.fleet()); got != 4 {
				t.Fatalf("fleet has %d shards after the merge, want 4", got)
			}
			census("after the merge")
		})
	}
}

// TestSplitBehindCrashedMergeFinishesItsRollback: there is one move record,
// so a split that starts while a crashed merge still awaits fence recovery
// must finish that merge's rollback rather than overwrite the record the
// detector would have found its copy by — else the duplicates on the live
// recipient become observable the moment the merge's donor is released.
func TestSplitBehindCrashedMergeFinishesItsRollback(t *testing.T) {
	const preload = 16384
	s := newTestServer(t, Options{
		Shards: 4, Workers: 2, Partitioner: shard.KindRange, Preload: preload,
		FenceDeadline: -1, Fault: mustFault(t, "reshard-install-crash@count=1", 1),
	})
	heatAllBut(s, 3, 5_000)
	merge, code := s.ReshardMerge()
	if code != http.StatusServiceUnavailable || !strings.Contains(merge.Err, "injected fault") {
		t.Fatalf("faulted merge = %d %+v", code, merge)
	}
	recip, donor := s.fleet()[merge.Recipient], s.fleet()[merge.Donor]
	if n, _ := keysOn(s, recip, merge.MovedLo, merge.MovedHi); n != 4096 {
		t.Fatalf("crashed merge left %d copied keys on the recipient, want 4096", n)
	}
	s.fleet()[0].routed.Add(100_000)
	if res, code := s.Reshard(); code != http.StatusOK || !res.Applied || res.Donor != 0 {
		t.Fatalf("split behind the crashed merge = %d %+v", code, res)
	}
	if n, _ := keysOn(s, recip, merge.MovedLo, merge.MovedHi); n != 0 {
		t.Fatalf("the merge's recipient still holds %d duplicate keys after the split", n)
	}
	s.recoverOrphan(donor, holderOf(donor, 0))
	if !fencesFree(s) {
		t.Fatal("merge donor still fenced after recovery")
	}
	if resp, code := s.submitRouted(&request{op: opRange, lo: 0, hi: ^uint64(0)}); code != http.StatusOK || resp.Count != preload {
		t.Fatalf("full scan = %d count %d, want %d", code, resp.Count, preload)
	}
}

// TestReshardLinearizability is the battery's centerpiece: concurrent
// gets/puts/cross-shard mputs/range scans race a live split — in the
// crash legs with the migrator killed donor-side mid-copy or after
// install just before the flip (rolled back by the failure detector,
// then retried to completion). The committed history plus a full
// post-quiescence key sweep must admit a sequential witness: no lost,
// torn or double-visible key, ever.
func TestReshardLinearizability(t *testing.T) {
	for _, leg := range []struct{ name, fault string }{
		{"clean", ""},
		{"donor-crash", "reshard-donor-crash@count=1"},
		{"install-crash", "reshard-install-crash@count=1"},
	} {
		t.Run(leg.name, func(t *testing.T) {
			underKeyedFences(t, func(t *testing.T) { testReshardLinearizability(t, leg.fault) })
		})
	}
}

func testReshardLinearizability(t *testing.T, faultSpec string) {
	opts := Options{
		Shards: 3, Workers: 2, HeapWords: 1 << 16,
		Partitioner:   shard.KindRange,
		CrossRetries:  512, // ride out fences held across a recovery window
		FenceDeadline: 80 * time.Millisecond,
	}
	if faultSpec != "" {
		opts.Fault = mustFault(t, faultSpec, 1)
	}
	s := newTestServer(t, opts)
	// Shard 0 is the forced hotspot: its span [0, 5461) splits at 2730,
	// so keys 3000/4000 migrate while 1 stays put; 6000 and 11000 pin
	// shards 1 and 2 as cross-shard participants throughout.
	s.fleet()[0].routed.Add(10_000)
	keys := []uint64{1, 3000, 4000, 6000, 11000}

	base := time.Now()
	rec := &linRecorder{}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := uint64(c*29 + 5)
			next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return (rng >> 33) % n }
			for i := 0; i < 6; i++ {
				k := keys[next(uint64(len(keys)))]
				v := uint64(c*1000 + i + 1)
				op := shard.Op{Invoke: int64(time.Since(base))}
				var resp response
				var code int
				switch next(4) {
				case 0:
					op.Kind = shard.OpGet
					op.Keys = []uint64{k}
					resp, code = s.submitRouted(&request{op: opGet, key: k})
					op.Vals, op.Oks = []uint64{resp.Val}, []bool{resp.Found}
				case 1:
					op.Kind = shard.OpPut
					op.Keys, op.Args = []uint64{k}, []uint64{v}
					resp, code = s.submitRouted(&request{op: opPut, key: k, val: v})
					op.Oks = []bool{resp.Existed}
				case 2:
					op.Kind = shard.OpMPut
					op.Keys = append([]uint64{}, keys[:3]...)
					op.Args = []uint64{v, v, v}
					resp, code = s.submitRouted(&request{op: opMPut, keys: op.Keys, vals: op.Args})
				default:
					op.Kind = shard.OpRange
					op.Keys = []uint64{0, 12000}
					resp, code = s.submitRouted(&request{op: opRange, lo: 0, hi: 12000})
					op.Vals = []uint64{resp.Count, resp.Sum}
				}
				op.Return = int64(time.Since(base))
				if code != http.StatusOK {
					t.Errorf("client %d op %d: HTTP %d %+v", c, i, code, resp)
					return
				}
				rec.record(op)
				time.Sleep(time.Duration(next(3)) * time.Millisecond)
			}
		}(c)
	}

	// The split lands mid-traffic. In the crash legs the first attempt is
	// killed by the injector, its recipient retired at once and its move
	// rolled back by the failure detector, and the retry — growing a fresh
	// recipient — must complete.
	time.Sleep(5 * time.Millisecond)
	res, code := s.Reshard()
	if faultSpec == "" {
		if code != http.StatusOK || !res.Applied {
			t.Fatalf("reshard = %d %+v", code, res)
		}
	} else {
		if code != http.StatusServiceUnavailable || res.Applied || !strings.Contains(res.Err, "injected fault") {
			t.Fatalf("faulted reshard = %d %+v, want 503 with the injected-fault error", code, res)
		}
		waitUntil(t, 5*time.Second, "fence recovery after migrator crash", func() bool { return fencesFree(s) })
		res, code = s.Reshard()
		if code != http.StatusOK || !res.Applied {
			t.Fatalf("reshard retry after rollback = %d %+v", code, res)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := s.part().Shards(); got != 4 {
		t.Fatalf("placement has %d shards after the split, want 4", got)
	}

	// Post-quiescence sweep: one recorded get per key. A lost or torn key
	// shows up as a history no sequential witness can explain.
	for _, k := range keys {
		op := shard.Op{Kind: shard.OpGet, Keys: []uint64{k}, Invoke: int64(time.Since(base))}
		resp, code := s.submitRouted(&request{op: opGet, key: k})
		if code != http.StatusOK {
			t.Fatalf("sweep get(%d) = %d %+v", k, code, resp)
		}
		op.Vals, op.Oks = []uint64{resp.Val}, []bool{resp.Found}
		op.Return = int64(time.Since(base))
		rec.record(op)
	}
	if _, ok := shard.Linearize(rec.ops); !ok {
		t.Fatalf("history of %d ops racing a live split admits no sequential witness: %+v", len(rec.ops), rec.ops)
	}

	// Quiescence: no fence held anywhere, the resharding gauge clear.
	waitUntil(t, 2*time.Second, "fences free after the split", func() bool { return fencesFree(s) })
	if s.resharding.Load() {
		t.Fatal("resharding gauge still set after the split completed")
	}
	st := s.StatusSnapshot()
	if st.Server.Resharding || st.Server.PartitionerEpoch == 0 {
		t.Fatalf("statusz after split: %+v", st.Server)
	}
	for _, sh := range st.Shards {
		if sh.FenceHeld {
			t.Fatalf("shard %d fence_held still true after the split", sh.Index)
		}
	}
}
