package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestRangeScanLocality pins the tentpole observable: the same scans
// fence strictly fewer shards under the order-preserving partitioner
// than under hashing, and scans contained in one boundary span skip the
// fence protocol entirely (a plain shard transaction).
func TestRangeScanLocality(t *testing.T) {
	const universe = 4096
	mk := func(kind string) *Server {
		return newTestServer(t, Options{
			Shards:      4,
			Workers:     2,
			Partitioner: kind,
			KeyUniverse: universe,
			Preload:     universe,
		})
	}
	scan := func(s *Server, lo, hi uint64) response {
		ts := httptest.NewServer(s)
		defer ts.Close()
		code, r := get(t, fmt.Sprintf("%s/kv/range?lo=%d&hi=%d", ts.URL, lo, hi))
		if code != 200 || r.Err != "" {
			t.Fatalf("range [%d,%d] = %d %+v", lo, hi, code, r)
		}
		return r
	}

	hash, rng := mk(shard.KindHash), mk(shard.KindRange)
	// Narrow scan inside shard 0's span [0, 1024) plus a full-universe
	// scan; both servers hold identical data, so results must agree.
	for _, s := range []*Server{hash, rng} {
		if r := scan(s, 100, 200); r.Count != 101 {
			t.Fatalf("%s narrow scan count = %d, want 101", s.part().Kind(), r.Count)
		}
		if r := scan(s, 0, universe-1); r.Count != universe {
			t.Fatalf("%s full scan count = %d, want %d", s.part().Kind(), r.Count, universe)
		}
	}

	hst, rst := hash.StatusSnapshot(), rng.StatusSnapshot()
	if hst.Server.Partitioner != shard.KindHash || rst.Server.Partitioner != shard.KindRange {
		t.Fatalf("statusz partitioner = %q / %q", hst.Server.Partitioner, rst.Server.Partitioner)
	}
	// Range partitioner: the narrow scan stayed on shard 0 (no fences),
	// the full scan fenced all four shards.
	if rst.Ops.RangeLocal != 1 || rst.Ops.RangeCross != 1 || rst.Ops.RangeFencedShards != 4 {
		t.Fatalf("range leg: local=%d cross=%d fenced_shards=%d, want 1/1/4",
			rst.Ops.RangeLocal, rst.Ops.RangeCross, rst.Ops.RangeFencedShards)
	}
	// Hash: a 101-key interval scatters over every shard, so both scans
	// fence the fleet.
	if hst.Ops.RangeLocal != 0 || hst.Ops.RangeCross != 2 || hst.Ops.RangeFencedShards != 8 {
		t.Fatalf("hash leg: local=%d cross=%d fenced_shards=%d, want 0/2/8",
			hst.Ops.RangeLocal, hst.Ops.RangeCross, hst.Ops.RangeFencedShards)
	}
	if rst.Ops.RangeFencedShards >= hst.Ops.RangeFencedShards {
		t.Fatalf("range partitioner fenced %d shards, hash %d — locality lost",
			rst.Ops.RangeFencedShards, hst.Ops.RangeFencedShards)
	}
	// Per-shard routed counters feed the rebalance step; the narrow scan
	// plus its share of the preload must have landed on shard 0.
	if rst.Shards[0].OpsRouted == 0 {
		t.Fatal("range leg: shard 0 ops_routed = 0")
	}
}

// TestRangeFenceOnlyParticipants is the regression test for the
// /kv/range over-fencing fix: under hash partitioning a single-key scan
// owns exactly one shard, so it must run as a plain shard transaction —
// no cross-shard commit, no fences, and therefore zero fenced requeues
// for concurrent traffic on the other shards. (Before the fix every
// /kv/range fenced the whole fleet and concurrent single-key operations
// showed up in ops.fenced_requeues.)
func TestRangeFenceOnlyParticipants(t *testing.T) {
	s := newTestServer(t, Options{Shards: 4, Workers: 2, Preload: 1024})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const scans = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < scans; i++ {
			k := uint64(i % 1024)
			if code, r := get(t, fmt.Sprintf("%s/kv/range?lo=%d&hi=%d", ts.URL, k, k)); code != 200 {
				t.Errorf("scan %d = %d %+v", i, code, r)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < scans*4; i++ {
			if code, r := get(t, fmt.Sprintf("%s/kv/get?key=%d", ts.URL, i%1024)); code != 200 {
				t.Errorf("get %d = %d %+v", i, code, r)
				return
			}
		}
	}()
	wg.Wait()

	st := s.StatusSnapshot()
	if st.Ops.RangeLocal != scans || st.Ops.RangeCross != 0 {
		t.Fatalf("single-key scans: local=%d cross=%d, want %d/0", st.Ops.RangeLocal, st.Ops.RangeCross, scans)
	}
	if st.Ops.CrossOps != 0 {
		t.Fatalf("single-key scans ran %d cross-shard commits", st.Ops.CrossOps)
	}
	if st.Ops.Fenced != 0 {
		t.Fatalf("ops.fenced_requeues = %d — scans fenced shards owning no key in the interval", st.Ops.Fenced)
	}
}

// TestRangeLinearizability races cross-shard mput batches against range
// scans under both partitioners and requires every committed history to
// admit a sequential witness with ordered-snapshot scan semantics — a
// scan that observed half of a batch (torn count/sum) fails the check.
func TestRangeLinearizability(t *testing.T) {
	for _, kind := range []string{shard.KindHash, shard.KindRange} {
		t.Run(kind, func(t *testing.T) {
			const rounds = 3
			for round := 0; round < rounds; round++ {
				// KeyUniverse 15 spreads keys 0..14 across the three
				// shards' spans under the range partitioner.
				s := newTestServer(t, Options{
					Shards:      3,
					Workers:     2,
					Partitioner: kind,
					KeyUniverse: 15,
					HeapWords:   1 << 16,
				})
				base := time.Now()
				rec := &linRecorder{}
				// Batch keys straddle all three spans (and, with high
				// probability, all three hash shards).
				batchKeys := []uint64{1, 6, 11}
				var wg sync.WaitGroup
				for c := 0; c < 3; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						rng := uint64(round*1000 + c*31 + 7)
						next := func(n uint64) uint64 {
							rng = rng*6364136223846793005 + 1442695040888963407
							return (rng >> 33) % n
						}
						for i := 0; i < 4; i++ {
							op := shard.Op{Invoke: int64(time.Since(base))}
							var resp response
							var code int
							switch next(3) {
							case 0:
								v := uint64(c*100 + round*10 + i + 1)
								op.Kind = shard.OpMPut
								op.Keys = append([]uint64{}, batchKeys...)
								op.Args = []uint64{v, v, v}
								resp, code = s.submitRouted(&request{op: opMPut, keys: op.Keys, vals: op.Args})
							case 1:
								k := batchKeys[next(3)]
								v := uint64(c*100 + round*10 + i + 1)
								op.Kind = shard.OpPut
								op.Keys, op.Args = []uint64{k}, []uint64{v}
								resp, code = s.submitRouted(&request{op: opPut, key: k, val: v})
								op.Oks = []bool{resp.Existed}
							default:
								op.Kind = shard.OpRange
								op.Keys = []uint64{0, 14}
								resp, code = s.submitRouted(&request{op: opRange, lo: 0, hi: 14})
								op.Vals = []uint64{resp.Count, resp.Sum}
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
					t.Fatalf("round %d: scan-racing-mput history of %d ops admits no sequential witness: %+v",
						round, len(rec.ops), rec.ops)
				}
			}
		})
	}
}
