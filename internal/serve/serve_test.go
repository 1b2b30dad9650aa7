package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	proteustm "repro"
	"repro/internal/shard"
)

var update = os.Getenv("UPDATE_GOLDEN") != ""

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	if opts.HeapWords == 0 {
		opts.HeapWords = 1 << 18
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func get(t *testing.T, url string) (int, response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var r response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp.StatusCode, r
}

// TestStoreRoundTrip exercises every operation kind through the HTTP
// surface on a single-connection client.
func TestStoreRoundTrip(t *testing.T) {
	s := newTestServer(t, Options{Preload: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, r := get(t, ts.URL+"/kv/get?key=7"); code != 200 || !r.Found || r.Val != 7 {
		t.Fatalf("preloaded get = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/put?key=100&val=41"); code != 200 || !r.Applied || r.Existed {
		t.Fatalf("put = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/cas?key=100&old=41&new=42"); code != 200 || !r.Applied || r.Val != 42 {
		t.Fatalf("cas = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/cas?key=100&old=41&new=43"); code != 200 || r.Applied {
		t.Fatalf("stale cas applied = %d %+v", code, r)
	}
	// Preload is keys 0..63 (val=key); key 100 holds 42.
	if code, r := get(t, ts.URL+"/kv/range?lo=0&hi=200"); code != 200 || r.Count != 65 {
		t.Fatalf("range = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/del?key=100"); code != 200 || !r.Applied {
		t.Fatalf("del = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/get?key=100"); code != 200 || r.Found {
		t.Fatalf("get after del = %d %+v", code, r)
	}
	for i, v := range []uint64{10, 20, 30} {
		url := fmt.Sprintf("%s/list/rpush?val=%d", ts.URL, v)
		if i == 1 {
			url = fmt.Sprintf("%s/list/lpush?val=%d", ts.URL, v)
		}
		if code, r := get(t, url); code != 200 || !r.Applied {
			t.Fatalf("push = %d %+v", code, r)
		}
	}
	// Deque now: [20, 10, 30].
	if code, r := get(t, ts.URL+"/list/len"); code != 200 || r.Len != 3 {
		t.Fatalf("len = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/list/lpop"); code != 200 || !r.Found || r.Val != 20 {
		t.Fatalf("lpop = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/list/rpop"); code != 200 || !r.Found || r.Val != 30 {
		t.Fatalf("rpop = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/get?key=nope"); code != 400 || r.Err == "" {
		t.Fatalf("bad param = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/range?lo=9&hi=3"); code != 400 || r.Err == "" {
		t.Fatalf("inverted range = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/mput?keys=200,201&vals=1,2"); code != 200 || !r.Applied {
		t.Fatalf("mput = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/mget?keys=200,201,202"); code != 200 ||
		len(r.Vals) != 3 || r.Vals[0] != 1 || r.Vals[1] != 2 || !r.Present[0] || !r.Present[1] || r.Present[2] {
		t.Fatalf("mget = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/mput?keys=1,2&vals=9"); code != 400 || r.Err == "" {
		t.Fatalf("mismatched mput accepted = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/mget?keys="); code != 400 || r.Err == "" {
		t.Fatalf("empty mget accepted = %d %+v", code, r)
	}
}

// TestConcurrentSmoke hammers the service from many client goroutines
// while the configuration is being switched underneath it — the race
// detector's view of the admission queue, the drain protocol and the
// statusz snapshot path.
func TestConcurrentSmoke(t *testing.T) {
	s := newTestServer(t, Options{Preload: 256, QueueDepth: 256})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const clients = 8
	const opsPerClient = 150
	var ok, rejected atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				k := (c*opsPerClient + i) % 512
				var url string
				switch i % 4 {
				case 0:
					url = fmt.Sprintf("%s/kv/get?key=%d", ts.URL, k)
				case 1:
					url = fmt.Sprintf("%s/kv/put?key=%d&val=%d", ts.URL, k, i)
				case 2:
					url = fmt.Sprintf("%s/kv/range?lo=%d&hi=%d", ts.URL, k, k+64)
				default:
					url = fmt.Sprintf("%s/list/rpush?val=%d", ts.URL, i)
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					t.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
				}
			}
		}(c)
	}
	// Concurrently shrink and grow the parallelism degree and switch
	// algorithms, exercising the graceful-drain hook under load.
	configs := []proteustm.Config{
		{Alg: proteustm.NOrec, Threads: 1},
		{Alg: proteustm.TL2, Threads: 4},
		{Alg: proteustm.GlobalLock, Threads: 2},
		{Alg: proteustm.SwissTM, Threads: 4},
	}
	stop := make(chan struct{})
	var cfgWg sync.WaitGroup
	cfgWg.Add(1)
	go func() {
		defer cfgWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if err := s.System().SetConfig(configs[i%len(configs)]); err != nil {
				t.Errorf("SetConfig: %v", err)
			}
		}
	}()
	wg.Wait()
	close(stop)
	cfgWg.Wait()

	if got := ok.Load() + rejected.Load(); got != clients*opsPerClient {
		t.Fatalf("accounted %d of %d requests", got, clients*opsPerClient)
	}
	st := s.StatusSnapshot()
	if st.Ops.Total != ok.Load() {
		t.Fatalf("served total %d, client-observed %d", st.Ops.Total, ok.Load())
	}
	if st.TM.Commits == 0 {
		t.Fatal("no commits recorded")
	}
}

// TestAdmissionOverflow checks the 429 path: with no workers draining the
// queue, QueueDepth admissions are accepted and the next is rejected
// immediately rather than stalling.
func TestAdmissionOverflow(t *testing.T) {
	s, err := newServer(Options{Workers: 2, QueueDepth: 4, HeapWords: 1 << 18})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	// Fill the queue from goroutines: submit blocks until a worker
	// replies, so park each submission's reply in its own goroutine.
	var wg sync.WaitGroup
	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, code := s.submit(s.fleet()[0], &request{op: opGet, key: uint64(i)})
			codes <- code
		}(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(s.fleet()[0].queue) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan int, 1)
	go func() {
		_, code := s.submit(s.fleet()[0], &request{op: opGet, key: 99})
		done <- code
	}()
	select {
	case code := <-done:
		if code != http.StatusTooManyRequests {
			t.Fatalf("overflow submit = HTTP %d, want 429", code)
		}
	case <-time.After(time.Second):
		t.Fatal("overflow submit stalled instead of returning 429")
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// Start the workers; the four parked submissions must all complete.
	s.startWorkers()
	wg.Wait()
	for i := 0; i < 4; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("parked submission = HTTP %d, want 200", code)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestGracefulDrainNoStall pins the drain protocol: shrinking the
// parallelism degree to 1 mid-burst must not strand any request — every
// submission completes even though most worker slots park.
func TestGracefulDrainNoStall(t *testing.T) {
	s := newTestServer(t, Options{Workers: 8, Preload: 128, QueueDepth: 512})
	var wg sync.WaitGroup
	var completed atomic.Uint64
	const n = 400
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, code := s.submit(s.fleet()[0], &request{op: opGet, key: uint64(i % 128)})
			if code == http.StatusOK {
				completed.Add(1)
			}
		}(i)
		if i == n/2 {
			if err := s.System().SetConfig(proteustm.Config{Alg: proteustm.NOrec, Threads: 1}); err != nil {
				t.Fatalf("shrink: %v", err)
			}
		}
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("requests stranded after shrink to 1 thread")
	}
	if rej := s.rejected.Load(); completed.Load()+rej != n {
		t.Fatalf("completed %d + rejected %d != %d", completed.Load(), rej, n)
	}
}

// jsonKeyPaths flattens a decoded JSON document into sorted dotted key
// paths; array elements contribute their first element's schema under [].
func jsonKeyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonKeyPaths(p, sub, out)
		}
	case []any:
		if len(x) > 0 {
			jsonKeyPaths(prefix+"[]", x[0], out)
		}
	}
}

// TestStatuszSchema pins the /statusz document schema (the operator
// interface documented in docs/serving.md) against a golden file. Run
// with UPDATE_GOLDEN=1 to regenerate after intentional changes.
func TestStatuszSchema(t *testing.T) {
	s := newTestServer(t, Options{
		Workers:      4,
		Preload:      256,
		AutoTune:     true,
		SamplePeriod: 10 * time.Millisecond,
		Seed:         7,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Generate some traffic and wait until the adapter has completed at
	// least one phase and logged timeline points, so the array schemas
	// are populated.
	deadline := time.Now().Add(10 * time.Second)
	for {
		for k := 0; k < 32; k++ {
			resp, err := http.Get(fmt.Sprintf("%s/kv/put?key=%d&val=%d", ts.URL, k, k))
			if err != nil {
				t.Fatalf("traffic: %v", err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
			resp.Body.Close()
		}
		st := s.StatusSnapshot()
		if len(st.Reconfigurations) > 0 && len(st.Timeline) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("adapter never produced a reconfiguration + timeline point")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	paths := map[string]bool{}
	jsonKeyPaths("", doc, paths)
	// Per-op counters are data, not schema.
	for p := range paths {
		if strings.HasPrefix(p, "ops.served.") {
			delete(paths, p)
		}
	}
	keys := make([]string, 0, len(paths))
	for p := range paths {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	const golden = "testdata/statusz_schema.golden"
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with UPDATE_GOLDEN=1): %v", golden, err)
	}
	if got != string(want) {
		t.Errorf("/statusz schema drifted from %s — if intentional, regenerate with UPDATE_GOLDEN=1.\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}

// TestParsePhases covers the loadgen phase-spec syntax.
func TestParsePhases(t *testing.T) {
	phases, err := ParsePhases("read-heavy:5s, write-heavy:500ms,scan:3s")
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 || phases[0].Mix.Name != "read-heavy" || phases[1].Duration != 500*time.Millisecond {
		t.Fatalf("got %+v", phases)
	}
	for _, bad := range []string{"", "nope:5s", "read-heavy", "read-heavy:xyz", "read-heavy:-1s"} {
		if _, err := ParsePhases(bad); err == nil {
			t.Errorf("ParsePhases(%q) accepted", bad)
		}
	}
}

// TestLoadgenAgainstServer runs a miniature in-process loadgen session —
// the same code path the CLI uses — against an auto-tuning server.
func TestLoadgenAgainstServer(t *testing.T) {
	s := newTestServer(t, Options{
		Workers:      4,
		Preload:      512,
		AutoTune:     true,
		SamplePeriod: 20 * time.Millisecond,
		Seed:         3,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	phases, err := ParsePhases("read-heavy:300ms,write-heavy:300ms")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLoadgen(LoadgenOptions{
		BaseURL:  ts.URL,
		Conns:    4,
		Phases:   phases,
		KeyRange: 512,
		Span:     64,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Total.Ops == 0 {
		t.Fatal("loadgen completed no operations")
	}
	if report.DaemonCommits == 0 {
		t.Fatal("daemon recorded no commits")
	}
	if len(report.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(report.Phases))
	}
	if report.Total.LatencyMs.Count == 0 || report.Total.LatencyMs.P50 <= 0 {
		t.Fatalf("latency summary empty: %+v", report.Total.LatencyMs)
	}
}

// --- sharded correctness battery -------------------------------------------

// TestShardedRoundTrip repeats the basic surface checks on a 4-shard
// server: routing must be transparent to clients.
func TestShardedRoundTrip(t *testing.T) {
	s := newTestServer(t, Options{Shards: 4, Workers: 2, Preload: 256})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	for k := 0; k < 256; k += 17 {
		if code, r := get(t, fmt.Sprintf("%s/kv/get?key=%d", ts.URL, k)); code != 200 || !r.Found || r.Val != uint64(k) {
			t.Fatalf("preloaded get key %d = %d %+v", k, code, r)
		}
	}
	// A range over the whole preload must see every key even though they
	// are scattered across four heaps.
	if code, r := get(t, ts.URL+"/kv/range?lo=0&hi=255"); code != 200 || r.Count != 256 {
		t.Fatalf("cross-shard range = %d %+v", code, r)
	}
	// Batch put across shards, then read it back atomically.
	if code, r := get(t, ts.URL+"/kv/mput?keys=1000,2000,3000,4000&vals=1,2,3,4"); code != 200 || !r.Applied {
		t.Fatalf("cross-shard mput = %d %+v", code, r)
	}
	if code, r := get(t, ts.URL+"/kv/mget?keys=1000,2000,3000,4000"); code != 200 ||
		len(r.Vals) != 4 || r.Vals[0] != 1 || r.Vals[3] != 4 || !r.Present[0] || !r.Present[3] {
		t.Fatalf("cross-shard mget = %d %+v", code, r)
	}
	st := s.StatusSnapshot()
	if st.Ops.CrossOps == 0 {
		t.Fatalf("no cross-shard commits recorded: %+v", st.Ops)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("statusz shards = %d, want 4", len(st.Shards))
	}
	for _, sh := range st.Shards {
		if sh.FenceHeld {
			t.Fatalf("shard %d fence still held after quiescence", sh.Index)
		}
	}
}

// TestCrossShardAbortAll pins the abort-all arm of the two-phase commit:
// a fence stuck on one participant makes the whole batch abort, releasing
// every fence it acquired, and the batch succeeds once the fence clears.
func TestCrossShardAbortAll(t *testing.T) {
	s := newTestServer(t, Options{Shards: 4, Workers: 2, CrossRetries: 3})

	// Find keys on four distinct shards.
	keys := make([]uint64, 0, 4)
	seen := map[int]bool{}
	for k := uint64(0); len(keys) < 4; k++ {
		if o := s.part().Owner(k); !seen[o] {
			seen[o] = true
			keys = append(keys, k)
		}
	}
	batches := s.part().Participants(keys)
	if len(batches) != 4 {
		t.Fatalf("expected 4 participants, got %d", len(batches))
	}
	// Wedge the fence of the last participant (highest shard index, so
	// the coordinator acquires the other three first).
	victim := s.fleet()[batches[3]]
	wedgeFence(victim, 999)

	vals := []uint64{1, 2, 3, 4}
	req := &request{op: opMPut, keys: keys, vals: vals}
	resp, code := s.submitCross(req)
	if code != http.StatusServiceUnavailable || resp.Err == "" {
		t.Fatalf("mput against a wedged fence = %d %+v, want 503", code, resp)
	}
	if got := s.crossAborts.Load(); got < 3 {
		t.Fatalf("crossAborts = %d, want >= CrossRetries", got)
	}
	// Abort-all must have released every fence the coordinator acquired.
	for _, b := range batches[:3] {
		ss := s.fleet()[b]
		if fenceHeld(ss) {
			t.Fatalf("shard %d fence leaked after abort-all: %+v", b, holderOf(ss, 0))
		}
	}
	// And no write may have landed anywhere.
	for i, k := range keys {
		ss := s.fleet()[s.part().Owner(k)]
		w, err := ss.sys.Worker(0)
		if err != nil {
			t.Fatal(err)
		}
		var found bool
		w.Atomic(func(tx proteustm.Txn) { _, found = ss.store.Get(tx, k) })
		if found {
			t.Fatalf("aborted batch leaked key %d (index %d)", k, i)
		}
	}

	// Clear the wedge: the same batch must now commit everywhere.
	unwedgeFence(victim)
	resp, code = s.submitCross(&request{op: opMPut, keys: keys, vals: vals})
	if code != http.StatusOK || !resp.Applied {
		t.Fatalf("mput after clearing fence = %d %+v", code, resp)
	}
	resp, code = s.submitCross(&request{op: opMGet, keys: keys})
	if code != http.StatusOK {
		t.Fatalf("mget = %d %+v", code, resp)
	}
	for i := range keys {
		if !resp.Present[i] || resp.Vals[i] != vals[i] {
			t.Fatalf("post-commit mget[%d] = %+v", i, resp)
		}
	}
}

// linRecorder turns concurrent client calls into a shard.Op history.
type linRecorder struct {
	mu  sync.Mutex
	ops []shard.Op
}

func (lr *linRecorder) record(op shard.Op) {
	lr.mu.Lock()
	lr.ops = append(lr.ops, op)
	lr.mu.Unlock()
}

// TestLinearizability is the battery's centerpiece: concurrent
// cross-shard PUT/CAS/DEL/MPUT/MGET traffic over a tiny key set, with
// every committed operation's invocation/response window recorded, must
// admit a sequential witness. Run under -race in CI.
func TestLinearizability(t *testing.T) {
	underKeyedFences(t, testLinearizability)
}

func testLinearizability(t *testing.T) {
	const rounds = 4
	const clients = 3
	const opsPerClient = 4
	for round := 0; round < rounds; round++ {
		s := newTestServer(t, Options{Shards: 3, Workers: 2, HeapWords: 1 << 16})
		base := time.Now()
		rec := &linRecorder{}
		// The keys deliberately straddle shards so mput/mget cross.
		keys := []uint64{1, 2, 3, 4, 5}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := uint64(round*100 + c*17 + 1)
				next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return (rng >> 33) % n }
				for i := 0; i < opsPerClient; i++ {
					k := keys[next(uint64(len(keys)))]
					v := uint64(c*1000 + round*100 + i + 1)
					op := shard.Op{Invoke: int64(time.Since(base))}
					var resp response
					var code int
					switch next(5) {
					case 0:
						op.Kind = shard.OpPut
						op.Keys, op.Args = []uint64{k}, []uint64{v}
						resp, code = s.submit(s.shardFor(&request{op: opPut, key: k}), &request{op: opPut, key: k, val: v})
						op.Oks = []bool{resp.Existed}
					case 1:
						op.Kind = shard.OpDel
						op.Keys = []uint64{k}
						resp, code = s.submit(s.shardFor(&request{op: opDel, key: k}), &request{op: opDel, key: k})
						op.Oks = []bool{resp.Applied}
					case 2:
						old := uint64(c*1000 + round*100 + i) // sometimes matches a prior write
						op.Kind = shard.OpCAS
						op.Keys, op.Args = []uint64{k}, []uint64{old, v}
						resp, code = s.submit(s.shardFor(&request{op: opCAS, key: k}), &request{op: opCAS, key: k, old: old, newv: v})
						op.Vals, op.Oks = []uint64{resp.Val}, []bool{resp.Applied}
					case 3:
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
						t.Errorf("round %d client %d op %d: HTTP %d %+v", round, c, i, code, resp)
						return
					}
					rec.record(op)
				}
			}(c)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if _, ok := shard.Linearize(rec.ops); !ok {
			t.Fatalf("round %d: committed history of %d ops admits no sequential witness: %+v", round, len(rec.ops), rec.ops)
		}
	}
}

// TestFencedOpsWaitForCommit checks the local-operation arm of the
// protocol: a single-key op on a fenced shard is requeued (not answered
// from mid-commit state) and completes once the fence clears.
func TestFencedOpsWaitForCommit(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2, Workers: 2})
	// Pick a key on shard 1 and wedge that shard's fence.
	var k uint64
	for s.part().Owner(k) != 1 {
		k++
	}
	victim := s.fleet()[1]
	wedgeFence(victim, 7)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, code := s.submit(victim, &request{op: opPut, key: k, val: 42})
		if code != http.StatusOK || !resp.Applied {
			t.Errorf("fenced put = %d %+v", code, resp)
		}
	}()
	// The op must be parked (fenced), not completed.
	deadline := time.Now().Add(2 * time.Second)
	for s.fenced.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fenced op was never requeued")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("op completed while the fence was held")
	case <-time.After(50 * time.Millisecond):
	}
	unwedgeFence(victim)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("op never completed after the fence cleared")
	}
}

// TestConcurrentCrossShardStress hammers cross-shard batches from many
// goroutines (forcing acquire-phase contention and abort-all retries)
// and checks every fence is free afterwards. Run under -race in CI.
func TestConcurrentCrossShardStress(t *testing.T) {
	s := newTestServer(t, Options{Shards: 4, Workers: 2, Preload: 64})
	var wg sync.WaitGroup
	var fails atomic.Uint64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				keys := []uint64{uint64(i % 16), uint64(16 + (i+c)%16), uint64(32 + i%16)}
				vals := []uint64{uint64(c), uint64(c), uint64(c)}
				var code int
				if i%2 == 0 {
					_, code = s.submitCross(&request{op: opMPut, keys: keys, vals: vals})
				} else {
					_, code = s.submitCross(&request{op: opMGet, keys: keys})
				}
				if code != http.StatusOK {
					fails.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if f := fails.Load(); f > 0 {
		t.Fatalf("%d cross-shard ops failed under contention", f)
	}
	for i, ss := range s.fleet() {
		if fenceHeld(ss) {
			t.Fatalf("shard %d fence left held (%+v) after stress", i, holderOf(ss, 0))
		}
	}
	st := s.StatusSnapshot()
	if st.Ops.CrossOps == 0 {
		t.Fatal("stress recorded no cross-shard commits")
	}
}

// TestLatencyAccounting pins the queue-wait/service split: after traffic,
// all three reservoirs are populated and total latency is at least the
// larger of the two components at the median.
func TestLatencyAccounting(t *testing.T) {
	s := newTestServer(t, Options{Preload: 32})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for k := 0; k < 64; k++ {
		if code, _ := get(t, fmt.Sprintf("%s/kv/get?key=%d", ts.URL, k%32)); code != 200 {
			t.Fatalf("traffic op %d failed", k)
		}
	}
	st := s.StatusSnapshot()
	if st.Latency.WindowObserved == 0 || st.QueueWait.WindowObserved == 0 || st.Service.WindowObserved == 0 {
		t.Fatalf("latency reservoirs not populated: total=%d wait=%d service=%d",
			st.Latency.WindowObserved, st.QueueWait.WindowObserved, st.Service.WindowObserved)
	}
	if st.Latency.P50 <= 0 {
		t.Fatalf("total latency p50 = %v", st.Latency.P50)
	}
}

// TestLoadgenSkewedAgainstShardedServer runs a skewed loadgen session —
// the CLI `--skew` path — against a 4-shard server and checks the report
// surfaces per-shard configurations plus cross-shard traffic.
func TestLoadgenSkewedAgainstShardedServer(t *testing.T) {
	s := newTestServer(t, Options{
		Shards:       4,
		Workers:      2,
		Preload:      512,
		AutoTune:     true,
		SamplePeriod: 20 * time.Millisecond,
		Seed:         3,
	})
	// Each shard's tuner trains its recommender when it starts, serving in
	// the reference configuration meanwhile. Under -race that is seconds of
	// CPU, which would leave a 400 ms session too few operations to contain
	// an mput: start it once every startup phase is over.
	waitUntil(t, time.Minute, "every shard's tuner to finish its startup phase", func() bool {
		for i := 0; i < s.Shards(); i++ {
			if sys := s.ShardSystem(i); sys.Phases() < 1 || sys.Exploring() {
				return false
			}
		}
		return true
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	phases, err := ParsePhases("mixed:400ms")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLoadgen(LoadgenOptions{
		BaseURL:  ts.URL,
		Conns:    4,
		Phases:   phases,
		KeyRange: 512,
		Span:     64,
		Skew:     0.9,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Shards != 4 {
		t.Fatalf("report.Shards = %d, want 4", report.Shards)
	}
	if len(report.ShardConfigs) != 4 {
		t.Fatalf("report.ShardConfigs = %v, want 4 entries", report.ShardConfigs)
	}
	if report.Total.Ops == 0 {
		t.Fatal("skewed loadgen completed no operations")
	}
	if report.Total.Errors != 0 {
		t.Fatalf("skewed loadgen hit %d errors", report.Total.Errors)
	}
	st := s.StatusSnapshot()
	if st.Ops.Served["mput"] == 0 {
		t.Fatal("skewed session issued no cross-shard mput batches")
	}
	// The skew plan steers writes at shards 0-1 and reads at shards 2-3;
	// per-shard commit profiles must reflect that divergence direction-
	// ally (writes produce conflict aborts, reads almost none).
	if st.TM.Commits == 0 {
		t.Fatal("no commits recorded")
	}
}

// TestKeyedFenceAllowsNonIntersectingOps pins the keyed-fence value
// proposition: while a cross-shard hold covers one key's signature,
// a local op on a non-intersecting key of the same shard proceeds
// immediately (no fenced requeue), while an intersecting op parks until
// release — and ops.fence_keys_held observes the hold.
func TestKeyedFenceAllowsNonIntersectingOps(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2, Workers: 2})
	// Two keys on shard 1 whose Bloom signature bits are disjoint.
	var fencedKey, freeKey uint64
	found := false
	for a := uint64(0); a < 1<<12 && !found; a++ {
		if s.part().Owner(a) != 1 {
			continue
		}
		for b := a + 1; b < 1<<12; b++ {
			if s.part().Owner(b) == 1 && keyBit(a)&keyBit(b) == 0 {
				fencedKey, freeKey, found = a, b, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no two same-shard keys with disjoint signature bits")
	}
	victim := s.fleet()[1]

	// A coordinator holds a keyed fence covering only fencedKey.
	r := s.ctlAcquire(victim, 7, KeyFenceSig([]uint64{fencedKey}))
	if !r.Applied {
		t.Fatalf("keyed acquire = %+v", r)
	}
	if got := s.StatusSnapshot().Ops.FenceKeysHeld; got != 1 {
		t.Fatalf("fence_keys_held = %d while one slot held, want 1", got)
	}

	// The non-intersecting op must complete while the fence is held.
	if resp, code := s.submit(victim, &request{op: opPut, key: freeKey, val: 1}); code != http.StatusOK {
		t.Fatalf("non-intersecting put = %d %+v", code, resp)
	}
	if got := s.fenced.Load(); got != 0 {
		t.Fatalf("fenced_requeues = %d after non-intersecting op, want 0", got)
	}

	// The intersecting op must park (fenced requeue), not complete.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, code := s.submit(victim, &request{op: opPut, key: fencedKey, val: 2}); code != http.StatusOK {
			t.Errorf("intersecting put = %d %+v", code, resp)
		}
	}()
	waitUntil(t, 2*time.Second, "fenced requeue", func() bool { return s.fenced.Load() > 0 })
	select {
	case <-done:
		t.Fatal("intersecting op completed while its key was fenced")
	case <-time.After(50 * time.Millisecond):
	}

	// Release the slot: the parked op drains.
	s.guarded(victim, r.hold, true, nil)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("intersecting op never completed after release")
	}
	if got := s.StatusSnapshot().Ops.FenceKeysHeld; got != 0 {
		t.Fatalf("fence_keys_held = %d after release, want 0", got)
	}
}
