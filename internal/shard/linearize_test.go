package shard

import "testing"

// seq builds a trivially sequential op (each op's window follows the
// previous one) for readability in the tests below.
type histBuilder struct {
	t   int64
	ops []Op
}

func (b *histBuilder) add(op Op) {
	op.Invoke = b.t
	op.Return = b.t + 1
	b.t += 2
	b.ops = append(b.ops, op)
}

func get(k, v uint64, found bool) Op {
	return Op{Kind: OpGet, Keys: []uint64{k}, Vals: []uint64{v}, Oks: []bool{found}}
}
func put(k, v uint64, existed bool) Op {
	return Op{Kind: OpPut, Keys: []uint64{k}, Args: []uint64{v}, Oks: []bool{existed}}
}

// TestLinearizeSequential accepts a straight-line history.
func TestLinearizeSequential(t *testing.T) {
	var b histBuilder
	b.add(put(1, 10, false))
	b.add(get(1, 10, true))
	b.add(Op{Kind: OpCAS, Keys: []uint64{1}, Args: []uint64{10, 11}, Vals: []uint64{11}, Oks: []bool{true}})
	b.add(Op{Kind: OpCAS, Keys: []uint64{1}, Args: []uint64{10, 12}, Vals: []uint64{11}, Oks: []bool{false}})
	b.add(Op{Kind: OpDel, Keys: []uint64{1}, Oks: []bool{true}})
	b.add(get(1, 0, false))
	order, ok := Linearize(b.ops)
	if !ok {
		t.Fatal("legal sequential history rejected")
	}
	if len(order) != len(b.ops) {
		t.Fatalf("witness has %d ops, want %d", len(order), len(b.ops))
	}
}

// TestLinearizeReordering accepts a history whose only witness reorders
// overlapping operations.
func TestLinearizeReordering(t *testing.T) {
	// put(1,5) overlaps a get that already sees 5: the get must be
	// linearized after the put even though it was invoked first.
	h := []Op{
		{Invoke: 0, Return: 10, Kind: OpGet, Keys: []uint64{1}, Vals: []uint64{5}, Oks: []bool{true}},
		{Invoke: 1, Return: 9, Kind: OpPut, Keys: []uint64{1}, Args: []uint64{5}, Oks: []bool{false}},
	}
	if _, ok := Linearize(h); !ok {
		t.Fatal("overlapping put/get history rejected")
	}
}

// TestLinearizeRejectsStaleRead rejects the classic real-time violation:
// a read that completed strictly before another read began observed newer
// state than the later read.
func TestLinearizeRejectsStaleRead(t *testing.T) {
	h := []Op{
		{Invoke: 0, Return: 20, Kind: OpMPut, Keys: []uint64{1, 2}, Args: []uint64{7, 7}},
		// r1 sees key 1 written and returns before r2 starts...
		{Invoke: 2, Return: 4, Kind: OpGet, Keys: []uint64{1}, Vals: []uint64{7}, Oks: []bool{true}},
		// ...but r2 still sees key 2 unwritten: the batch was torn.
		{Invoke: 6, Return: 8, Kind: OpGet, Keys: []uint64{2}, Vals: []uint64{0}, Oks: []bool{false}},
	}
	if _, ok := Linearize(h); ok {
		t.Fatal("torn cross-shard batch accepted as linearizable")
	}
}

// TestLinearizeRejectsTornMGet rejects a multi-key read that observed a
// half-applied batch even without real-time ordering between the readers.
func TestLinearizeRejectsTornMGet(t *testing.T) {
	h := []Op{
		{Invoke: 0, Return: 2, Kind: OpMPut, Keys: []uint64{1, 2}, Args: []uint64{1, 1}},
		{Invoke: 4, Return: 6, Kind: OpMPut, Keys: []uint64{1, 2}, Args: []uint64{2, 2}},
		// Observes key 1 from the second batch but key 2 from the first:
		// no sequential order of the two mputs produces this.
		{Invoke: 8, Return: 10, Kind: OpMGet, Keys: []uint64{1, 2}, Vals: []uint64{2, 1}, Oks: []bool{true, true}},
	}
	if _, ok := Linearize(h); ok {
		t.Fatal("torn mget accepted as linearizable")
	}
}

// TestLinearizeRejectsLostUpdate rejects two CAS operations that both
// claim to have applied from the same observed value.
func TestLinearizeRejectsLostUpdate(t *testing.T) {
	h := []Op{
		{Invoke: 0, Return: 1, Kind: OpPut, Keys: []uint64{9}, Args: []uint64{1}, Oks: []bool{false}},
		{Invoke: 2, Return: 8, Kind: OpCAS, Keys: []uint64{9}, Args: []uint64{1, 2}, Vals: []uint64{2}, Oks: []bool{true}},
		{Invoke: 3, Return: 9, Kind: OpCAS, Keys: []uint64{9}, Args: []uint64{1, 3}, Vals: []uint64{3}, Oks: []bool{true}},
	}
	if _, ok := Linearize(h); ok {
		t.Fatal("lost-update CAS pair accepted as linearizable")
	}
}

// scan builds a range-scan op: observed (count, sum) over [lo, hi].
func scan(lo, hi, count, sum uint64) Op {
	return Op{Kind: OpRange, Keys: []uint64{lo, hi}, Vals: []uint64{count, sum}}
}

// TestLinearizeRangeSequential accepts scans that observe consistent
// snapshots at every point of a straight-line history.
func TestLinearizeRangeSequential(t *testing.T) {
	var b histBuilder
	b.add(scan(0, 100, 0, 0)) // empty store
	b.add(put(5, 10, false))
	b.add(put(50, 30, false))
	b.add(scan(0, 100, 2, 40)) // sees both
	b.add(scan(0, 10, 1, 10))  // sees only key 5
	b.add(scan(60, 100, 0, 0)) // sees neither
	b.add(Op{Kind: OpDel, Keys: []uint64{5}, Oks: []bool{true}})
	b.add(scan(0, 100, 1, 30)) // key 5 gone
	if _, ok := Linearize(b.ops); !ok {
		t.Fatal("legal scan history rejected")
	}
}

// TestLinearizeRejectsTornScan rejects a scan that observed half of an
// atomic cross-shard batch — the ordered-snapshot violation the range
// extension exists to catch.
func TestLinearizeRejectsTornScan(t *testing.T) {
	h := []Op{
		// Batch writes keys 1 and 2 (values 5 and 5) atomically.
		{Invoke: 0, Return: 2, Kind: OpMPut, Keys: []uint64{1, 2}, Args: []uint64{5, 5}},
		// A scan of [1,2] can legally see (0,0) or (2,10) — never (1,5).
		{Invoke: 4, Return: 6, Kind: OpRange, Keys: []uint64{1, 2}, Vals: []uint64{1, 5}},
	}
	if _, ok := Linearize(h); ok {
		t.Fatal("torn scan accepted as linearizable")
	}
}

// TestLinearizeRejectsStaleScan rejects the real-time violation between
// two scans: the earlier-completing scan saw newer state.
func TestLinearizeRejectsStaleScan(t *testing.T) {
	h := []Op{
		{Invoke: 0, Return: 20, Kind: OpMPut, Keys: []uint64{1, 2}, Args: []uint64{3, 4}},
		// This scan returned before the next began and saw the batch...
		{Invoke: 2, Return: 4, Kind: OpRange, Keys: []uint64{0, 10}, Vals: []uint64{2, 7}},
		// ...but the later scan saw the pre-batch state.
		{Invoke: 6, Return: 8, Kind: OpRange, Keys: []uint64{0, 10}, Vals: []uint64{0, 0}},
	}
	if _, ok := Linearize(h); ok {
		t.Fatal("stale scan accepted as linearizable")
	}
}

// TestLinearizeRangeOverlapping accepts a scan overlapping a batch put
// whichever side of the batch it lands on.
func TestLinearizeRangeOverlapping(t *testing.T) {
	for _, vals := range [][2]uint64{{0, 0}, {2, 10}} {
		h := []Op{
			{Invoke: 0, Return: 10, Kind: OpMPut, Keys: []uint64{1, 2}, Args: []uint64{5, 5}},
			{Invoke: 1, Return: 9, Kind: OpRange, Keys: []uint64{0, 5}, Vals: []uint64{vals[0], vals[1]}},
		}
		if _, ok := Linearize(h); !ok {
			t.Fatalf("overlapping scan observing (%d,%d) rejected", vals[0], vals[1])
		}
	}
}

// TestLinearizeEmptyAndWitnessOrder covers the trivial cases and checks
// the witness indexes are a permutation.
func TestLinearizeEmptyAndWitnessOrder(t *testing.T) {
	if _, ok := Linearize(nil); !ok {
		t.Fatal("empty history rejected")
	}
	var b histBuilder
	b.add(put(3, 1, false))
	b.add(put(3, 2, true))
	b.add(get(3, 2, true))
	order, ok := Linearize(b.ops)
	if !ok {
		t.Fatal("history rejected")
	}
	seen := map[int]bool{}
	for _, i := range order {
		if i < 0 || i >= len(b.ops) || seen[i] {
			t.Fatalf("witness %v is not a permutation", order)
		}
		seen[i] = true
	}
}

// TestLinearizeBeyond64Ops checks a sequential history of more than 64
// operations, one word of the chosen-set past the first: the legal
// history is accepted, and the same history with its last read wrong is
// rejected.
func TestLinearizeBeyond64Ops(t *testing.T) {
	var b histBuilder
	model := map[uint64]uint64{}
	for i := uint64(0); i < 100; i++ {
		k := i % 7
		v, found := model[k]
		if i%2 == 0 {
			b.add(put(k, i, found))
			model[k] = i
		} else {
			b.add(get(k, v, found))
		}
	}
	if order, ok := Linearize(b.ops); !ok || len(order) != len(b.ops) {
		t.Fatalf("legal %d-op sequential history rejected (witness %d ops)", len(b.ops), len(order))
	}
	last := &b.ops[len(b.ops)-1]
	last.Vals = []uint64{last.Vals[0] + 1}
	if _, ok := Linearize(b.ops); ok {
		t.Fatalf("%d-op history whose last read is wrong accepted", len(b.ops))
	}
}
