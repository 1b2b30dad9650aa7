package shard

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind identifies one key-value operation in a recorded history.
type OpKind uint8

// The operation kinds the checker models — the sharded store's committed
// surface: point ops plus the cross-shard batch ops.
const (
	OpGet OpKind = iota
	OpPut
	OpDel
	OpCAS
	OpMPut
	OpMGet
	OpRange
)

// String names the kind for failure reports.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	case OpCAS:
		return "cas"
	case OpMPut:
		return "mput"
	case OpMGet:
		return "mget"
	case OpRange:
		return "range"
	}
	return "?"
}

// Op is one completed operation of a concurrent history: its real-time
// invocation/response window plus its arguments and recorded results.
//
//	get  k          → Vals[0], Oks[0] (found)
//	put  k, Args[0] → Oks[0] (key existed before)
//	del  k          → Oks[0] (key existed / delete applied)
//	cas  k, Args[0]=old, Args[1]=new → Vals[0] (observed), Oks[0] (applied)
//	mput Keys, Args (values, aligned)  → no observable result
//	mget Keys       → Vals, Oks (present), aligned with Keys
//	range Keys[0]=lo, Keys[1]=hi → Vals[0] (count), Vals[1] (sum)
type Op struct {
	// Invoke and Return are the operation's invocation and response
	// timestamps (any monotonic unit; only their order matters).
	Invoke, Return int64
	// Kind is the operation kind.
	Kind OpKind
	// Keys are the operated keys (single-element for point ops).
	Keys []uint64
	// Args are the input values (see the table above).
	Args []uint64
	// Vals are the recorded output values.
	Vals []uint64
	// Oks are the recorded boolean outcomes.
	Oks []bool
}

// kvState is the sequential witness state: the key-value map a candidate
// linearization has produced so far. Absent key = not found.
type kvState map[uint64]uint64

// chosenSet is the set of operations a candidate linearization has
// placed: bit i%64 of word i/64 is operation i.
type chosenSet []uint64

func (c chosenSet) has(i int) bool { return c[i/64]&(1<<(i%64)) != 0 }

// flip adds operation i to the set, or takes it out.
func (c chosenSet) flip(i int) { c[i/64] ^= 1 << (i % 64) }

// digest canonically encodes (chosen-set, state) for the memo table.
func (st kvState) digest(chosen chosenSet) string {
	keys := make([]uint64, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, w := range chosen {
		fmt.Fprintf(&b, "%x,", w)
	}
	b.WriteByte(':')
	for _, k := range keys {
		fmt.Fprintf(&b, "%x=%x;", k, st[k])
	}
	return b.String()
}

// step applies op to st if the op's recorded results are consistent with
// st, returning an undo list ((key, hadValue, oldValue) triples) and
// whether the op is admissible in this state.
func step(st kvState, op *Op) (undo []kvUndo, ok bool) {
	record := func(k uint64) {
		v, had := st[k]
		undo = append(undo, kvUndo{k: k, had: had, v: v})
	}
	switch op.Kind {
	case OpGet:
		v, found := st[op.Keys[0]]
		return nil, found == op.Oks[0] && (!found || v == op.Vals[0])
	case OpPut:
		k := op.Keys[0]
		_, existed := st[k]
		if existed != op.Oks[0] {
			return nil, false
		}
		record(k)
		st[k] = op.Args[0]
		return undo, true
	case OpDel:
		k := op.Keys[0]
		_, existed := st[k]
		if existed != op.Oks[0] {
			return nil, false
		}
		if existed {
			record(k)
			delete(st, k)
		}
		return undo, true
	case OpCAS:
		k := op.Keys[0]
		cur, found := st[k]
		applied := found && cur == op.Args[0]
		if applied != op.Oks[0] {
			return nil, false
		}
		// The store reports the value it observed: the new value when the
		// swap applied, the current value (zero if absent) otherwise.
		want := cur
		if applied {
			want = op.Args[1]
		} else if !found {
			want = 0
		}
		if op.Vals[0] != want {
			return nil, false
		}
		if applied {
			record(k)
			st[k] = op.Args[1]
		}
		return undo, true
	case OpMPut:
		for i, k := range op.Keys {
			record(k)
			st[k] = op.Args[i]
		}
		return undo, true
	case OpMGet:
		for i, k := range op.Keys {
			v, found := st[k]
			if found != op.Oks[i] || (found && v != op.Vals[i]) {
				return nil, false
			}
		}
		return nil, true
	case OpRange:
		// Ordered snapshot semantics: the recorded (count, sum) must be
		// what a scan of this exact state over [lo, hi] produces — a scan
		// that observed two different states (one shard's keys before a
		// batch, another's after) has no admissible position.
		lo, hi := op.Keys[0], op.Keys[1]
		var count, sum uint64
		for k, v := range st {
			if k >= lo && k <= hi {
				count++
				sum += v
			}
		}
		return nil, count == op.Vals[0] && sum == op.Vals[1]
	}
	return nil, false
}

type kvUndo struct {
	k   uint64
	had bool
	v   uint64
}

func unstep(st kvState, undo []kvUndo) {
	// Reverse order restores earlier snapshots last, which is what makes
	// mput undo correct when a batch writes the same key twice.
	for i := len(undo) - 1; i >= 0; i-- {
		u := undo[i]
		if u.had {
			st[u.k] = u.v
		} else {
			delete(st, u.k)
		}
	}
}

// Linearize exhaustively searches for a sequential witness of history: a
// total order of the operations that (a) respects real-time order (an op
// that returned before another was invoked comes first) and (b) is legal
// for a key-value store that starts empty. It returns a witness order (as
// indexes into history) and whether one exists.
//
// The search is Wing–Gong style DFS with memoization on (chosen-set,
// state), exponential in the worst case in the operations that overlap
// — intended for the histories the correctness battery records, not for
// production checking.
func Linearize(history []Op) ([]int, bool) {
	n := len(history)
	if n == 0 {
		return nil, true
	}
	st := kvState{}
	order := make([]int, 0, n)
	chosen := make(chosenSet, (n+63)/64)
	failed := map[string]bool{}

	var dfs func() bool
	dfs = func() bool {
		if len(order) == n {
			return true
		}
		key := st.digest(chosen)
		if failed[key] {
			return false
		}
		for i := 0; i < n; i++ {
			if chosen.has(i) {
				continue
			}
			// i is schedulable only if every operation that completed
			// before i was invoked has already been placed.
			ok := true
			for j := 0; j < n; j++ {
				if !chosen.has(j) && j != i && history[j].Return < history[i].Invoke {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			undo, legal := step(st, &history[i])
			if !legal {
				unstep(st, undo)
				continue
			}
			chosen.flip(i)
			order = append(order, i)
			if dfs() {
				return true
			}
			order = order[:len(order)-1]
			chosen.flip(i)
			unstep(st, undo)
		}
		failed[key] = true
		return false
	}
	if dfs() {
		return order, true
	}
	return nil, false
}
