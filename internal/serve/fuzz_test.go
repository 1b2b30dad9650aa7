package serve

// Fuzz target for the cross-shard commit path: arbitrary op programs,
// executed concurrently through a two-shard server, must leave a
// committed history that admits a sequential witness (shard.Linearize).
// This is the same linearizability-first gate the hand-written battery
// uses, pointed at fuzzer-chosen interleavings of point operations and
// keyed-fence cross-shard batches.

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// FuzzCrossShardLinearizable decodes the fuzz input into a program of
// point and cross-shard ops, replays it from three concurrent clients
// and checks the committed history linearizes.
func FuzzCrossShardLinearizable(f *testing.F) {
	f.Add([]byte{0, 7, 14, 21, 28, 35, 42, 49, 3, 9, 27, 81})
	f.Add([]byte{255, 254, 253, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{4, 4, 4, 4, 5, 5, 5, 5, 0, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		if len(program) > 96 {
			program = program[:96]
		}
		s := newTestServer(t, Options{Shards: 2, Workers: 2, HeapWords: 1 << 16})
		// A small key set so ops collide; the first three keys straddle
		// both shards often enough to exercise the cross-shard path.
		keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
		base := time.Now()
		rec := &linRecorder{}

		const clients = 3
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(program); i += clients {
					b := program[i]
					k := keys[int(b/6)%len(keys)]
					v := uint64(i + 1)
					op := shard.Op{Invoke: int64(time.Since(base))}
					var resp response
					var code int
					switch b % 6 {
					case 0:
						op.Kind = shard.OpPut
						op.Keys, op.Args = []uint64{k}, []uint64{v}
						resp, code = s.submitRouted(&request{op: opPut, key: k, val: v})
						op.Oks = []bool{resp.Existed}
					case 1:
						op.Kind = shard.OpGet
						op.Keys = []uint64{k}
						resp, code = s.submitRouted(&request{op: opGet, key: k})
						op.Vals, op.Oks = []uint64{resp.Val}, []bool{resp.Found}
					case 2:
						op.Kind = shard.OpDel
						op.Keys = []uint64{k}
						resp, code = s.submitRouted(&request{op: opDel, key: k})
						op.Oks = []bool{resp.Applied}
					case 3:
						old := uint64(b) // sometimes matches a prior write
						op.Kind = shard.OpCAS
						op.Keys, op.Args = []uint64{k}, []uint64{old, v}
						resp, code = s.submitRouted(&request{op: opCAS, key: k, old: old, newv: v})
						op.Vals, op.Oks = []uint64{resp.Val}, []bool{resp.Applied}
					case 4:
						op.Kind = shard.OpMPut
						op.Keys = append([]uint64{}, keys[:3]...)
						op.Args = []uint64{v, v, v}
						resp, code = s.submitRouted(&request{op: opMPut, keys: op.Keys, vals: op.Args})
					default:
						op.Kind = shard.OpMGet
						op.Keys = append([]uint64{}, keys[:3]...)
						resp, code = s.submitRouted(&request{op: opMGet, keys: op.Keys})
						op.Vals, op.Oks = resp.Vals, resp.Present
					}
					op.Return = int64(time.Since(base))
					// A failed op (shed, exhausted abort-all) applied
					// nothing, so it is simply absent from the history.
					if code == http.StatusOK {
						rec.record(op)
					}
				}
			}(c)
		}
		wg.Wait()

		if _, ok := shard.Linearize(rec.ops); !ok {
			t.Fatalf("history of %d ops admits no sequential witness: %+v", len(rec.ops), rec.ops)
		}
	})
}
