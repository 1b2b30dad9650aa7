package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestCancellationStormNeverExecutes pins the deadline/cancellation gate
// deterministically: with no slot token circulating, a line full of
// operations whose clients hang up must leave it at once — answered 499
// and counted shed_deadline as they leave — and a second line full of
// operations whose deadlines pass must be dropped when they reach a slot —
// answered 504; none is ever executed against the store.
func TestCancellationStormNeverExecutes(t *testing.T) {
	const n = 16
	s, err := newServer(Options{Workers: 2, QueueDepth: 64, HeapWords: 1 << 18, Deadline: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}

	// Storm A: n puts to distinct keys whose clients cancel while queued.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	codes := make(chan int, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, code := s.submit(s.fleet()[0], &request{op: opPut, key: uint64(1000 + i), val: 1, ctx: ctx})
			codes <- code
		}(i)
	}
	waitQueueLen(t, s.fleet()[0], n)
	cancel()
	wg.Wait() // every submitter came back 499 before any token circulated
	for i := 0; i < n; i++ {
		if code := <-codes; code != 499 {
			t.Fatalf("canceled submission = HTTP %d, want 499", code)
		}
	}
	if got, left := s.shedDeadline.Load(), s.fleet()[0].waiting.Load(); got != n || left != 0 {
		t.Fatalf("after the hang-ups shed_deadline = %d and %d still in line, want %d and 0", got, left, n)
	}

	// Storm B: n more puts whose server-default deadline (5 ms) passes
	// while they wait in line. These submitters stay in line, so they must
	// be answered 504 by the drop path once a slot reaches them.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, code := s.submit(s.fleet()[0], &request{op: opPut, key: uint64(2000 + i), val: 1})
			codes <- code
		}(i)
	}
	waitQueueLen(t, s.fleet()[0], n)
	time.Sleep(10 * time.Millisecond) // let every storm-B deadline lapse

	s.startServing()
	wg.Wait()
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusGatewayTimeout {
			t.Fatalf("deadline-expired submission = HTTP %d, want 504", code)
		}
	}

	// The gate's books: every stormed op was dropped, none executed.
	waitShedDeadline(t, s, 2*n)
	if got := s.totalServed(); got != 0 {
		t.Fatalf("served %d operations, want 0 — an op that expired in line executed", got)
	}
	for i := 0; i < 2*n; i++ {
		k := uint64(1000 + i)
		if i >= n {
			k = uint64(2000 + i - n)
		}
		resp, code := s.submit(s.fleet()[0], &request{op: opGet, key: k})
		if code != http.StatusOK {
			t.Fatalf("get key %d = HTTP %d", k, code)
		}
		if resp.Found {
			t.Fatalf("key %d exists — a dropped put executed anyway", k)
		}
	}
	st := s.StatusSnapshot()
	if st.Ops.ShedDeadline != s.shedDeadline.Load() || st.Ops.ShedDeadline != 2*n {
		t.Fatalf("statusz shed_deadline = %d, counter = %d, want %d", st.Ops.ShedDeadline, s.shedDeadline.Load(), 2*n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// waitQueueLen polls until want requests wait in shard ss's line.
func waitQueueLen(t *testing.T, ss *shardState, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for ss.waiting.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("line stuck at %d of %d", ss.waiting.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitShedDeadline polls until the shed_deadline counter reaches want.
func waitShedDeadline(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.shedDeadline.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("shed_deadline stuck at %d of %d", s.shedDeadline.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlowClientStormLinearizable is the live half of the battery: honest
// mutating traffic races a storm of slow clients — writers whose contexts
// are already dead and readers on microsecond budgets — across two
// shards. The dead writers' keys must never appear in the store, the
// drop counter must account for every dead writer, and the committed
// history of the honest traffic must still admit a sequential witness.
func TestSlowClientStormLinearizable(t *testing.T) {
	const honest = 3
	const opsPerClient = 6
	const deadWriters = 24
	s := newTestServer(t, Options{Shards: 2, Workers: 2, HeapWords: 1 << 16})
	base := time.Now()
	rec := &linRecorder{}
	keys := []uint64{1, 2, 3, 4, 5}

	dead, kill := context.WithCancel(context.Background())
	kill() // the slow clients' contexts are dead on arrival

	var wg sync.WaitGroup
	for c := 0; c < honest; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := uint64(c*2654435761 + 1)
			next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return (rng >> 33) % n }
			for i := 0; i < opsPerClient; i++ {
				k := keys[next(uint64(len(keys)))]
				v := uint64(c*1000 + i + 1)
				op := shard.Op{Invoke: int64(time.Since(base))}
				var resp response
				var code int
				switch next(4) {
				case 0:
					op.Kind = shard.OpPut
					op.Keys, op.Args = []uint64{k}, []uint64{v}
					resp, code = s.submit(s.shardFor(&request{op: opPut, key: k}), &request{op: opPut, key: k, val: v})
					op.Oks = []bool{resp.Existed}
				case 1:
					op.Kind = shard.OpCAS
					old := uint64(c*1000 + i)
					op.Keys, op.Args = []uint64{k}, []uint64{old, v}
					resp, code = s.submit(s.shardFor(&request{op: opCAS, key: k}), &request{op: opCAS, key: k, old: old, newv: v})
					op.Vals, op.Oks = []uint64{resp.Val}, []bool{resp.Applied}
				case 2:
					op.Kind = shard.OpMPut
					op.Keys = append([]uint64{}, keys[:3]...)
					op.Args = []uint64{v, v, v}
					resp, code = s.submitCross(&request{op: opMPut, keys: op.Keys, vals: op.Args})
				default:
					op.Kind = shard.OpMGet
					op.Keys = append([]uint64{}, keys...)
					resp, code = s.submitCross(&request{op: opMGet, keys: op.Keys})
					op.Vals, op.Oks = resp.Vals, resp.Present
				}
				op.Return = int64(time.Since(base))
				if code != http.StatusOK {
					t.Errorf("client %d op %d: HTTP %d %+v", c, i, code, resp)
					return
				}
				rec.record(op)
			}
		}(c)
	}
	// The storm: dead writers target keys the honest traffic never
	// touches, so any that executes is visible afterward; slow readers
	// race microsecond budgets against real queue waits.
	for i := 0; i < deadWriters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &request{op: opPut, key: uint64(5000 + i), val: 1, ctx: dead}
			if _, code := s.submit(s.shardFor(req), req); code != 499 {
				t.Errorf("dead writer %d = HTTP %d, want 499", i, code)
			}
			slow := &request{op: opGet, key: keys[i%len(keys)], budget: time.Microsecond}
			if _, code := s.submit(s.shardFor(slow), slow); code != http.StatusOK && code != http.StatusGatewayTimeout {
				t.Errorf("slow reader %d = HTTP %d, want 200 or 504", i, code)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every dead writer was dropped by the gate, and none is visible.
	waitShedDeadline(t, s, deadWriters)
	for i := 0; i < deadWriters; i++ {
		req := &request{op: opGet, key: uint64(5000 + i)}
		resp, code := s.submit(s.shardFor(req), req)
		if code != http.StatusOK {
			t.Fatalf("get key %d = HTTP %d", 5000+i, code)
		}
		if resp.Found {
			t.Fatalf("key %d exists — a canceled put executed anyway", 5000+i)
		}
	}
	if _, ok := shard.Linearize(rec.ops); !ok {
		t.Fatalf("committed history of %d ops admits no sequential witness under the cancellation storm: %+v", len(rec.ops), rec.ops)
	}
}
