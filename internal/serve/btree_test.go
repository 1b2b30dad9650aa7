package serve

// Battery for the store's B+-tree: a model test against a Go map under four
// TM backends, the node shapes an ascending load must build, emptied
// leaves, two goroutines on one tree, and the store-level promises built on
// it (span cycles do not grow the heap, Room is never optimistic, the fence
// header is one stripe).

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/htm"
	"repro/internal/stm"
	"repro/internal/tm"
)

// btBackends are the TM backends the tree is checked under: the simulated
// HTM every shard boots into, a lazy and a value-validating STM, and the
// global lock, which writes in place. Each call of alg makes a fresh one.
var btBackends = []struct {
	name string
	alg  func() tm.Algorithm
}{
	{"htm", func() tm.Algorithm { return &htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)} }},
	{"tl2", func() tm.Algorithm { return stm.TL2{} }},
	{"norec", func() tm.Algorithm { return stm.NOrec{} }},
	{"gl", func() tm.Algorithm { return &stm.GlobalLock{} }},
}

// btShape is what btCheck learns about a tree besides its contents.
type btShape struct {
	levels       int
	leaves       []int // key count of each leaf, in chain order
	inner        int   // inner nodes
	innerNotFull int   // inner nodes off the rightmost path with fewer than 16 children
}

// btCheck walks the tree outside any transaction and fails the test unless
// it is a well-formed B+-tree: every node holds at most 15 ascending keys
// inside the bounds its parent's separators give it, levels fall by one per
// step down and every leaf is at level 0, and the leaf chain visits exactly
// the leaves of the in-order walk. It returns the pairs in key order.
func btCheck(t *testing.T, bt *btree) (keys, vals []uint64, shape btShape) {
	t.Helper()
	h := bt.h
	var order []tm.Addr
	var walk func(n tm.Addr, level uint64, lo, hi uint64, hasLo, hasHi, right bool)
	walk = func(n tm.Addr, level uint64, lo, hi uint64, hasLo, hasHi, right bool) {
		hdr := h.LoadWord(n + btHdr)
		cnt := int(hdr & btCount)
		if n%stripeWords != 0 {
			t.Fatalf("node %d is not stripe-aligned", n)
		}
		if hdr>>btLevel != level || cnt > btMaxKeys {
			t.Fatalf("node %d: header %#x, want level %d and at most %d keys", n, hdr, level, btMaxKeys)
		}
		var prev uint64
		for i := 0; i < cnt; i++ {
			k := h.LoadWord(n + btKeys + tm.Addr(i))
			if (i > 0 && k <= prev) || (hasLo && k < lo) || (hasHi && k >= hi) {
				t.Fatalf("node %d: key %d = %d out of order or outside [%d, %d)", n, i, k, lo, hi)
			}
			prev = k
		}
		if level == 0 {
			order = append(order, n)
			shape.leaves = append(shape.leaves, cnt)
			for i := 0; i < cnt; i++ {
				keys = append(keys, h.LoadWord(n+btKeys+tm.Addr(i)))
				vals = append(vals, h.LoadWord(n+btVals+tm.Addr(i)))
			}
			return
		}
		shape.inner++
		if !right && cnt < btMaxKeys {
			shape.innerNotFull++
		}
		for i := 0; i <= cnt; i++ {
			clo, chasLo, chi, chasHi := lo, hasLo, hi, hasHi
			if i > 0 {
				clo, chasLo = h.LoadWord(n+btKeys+tm.Addr(i-1)), true
			}
			if i < cnt {
				chi, chasHi = h.LoadWord(n+btKeys+tm.Addr(i)), true
			}
			walk(tm.Addr(h.LoadWord(n+btKids+tm.Addr(i))), level-1, clo, chi, chasLo, chasHi, right && i == cnt)
		}
	}
	top := h.LoadWord(bt.root+btHdr) >> btLevel
	shape.levels = int(top) + 1
	walk(bt.root, top, 0, 0, false, false, true)
	n := order[0]
	for i, want := range order {
		if n != want {
			t.Fatalf("leaf chain: step %d is node %d, the in-order walk has %d", i, n, want)
		}
		n = tm.Addr(h.LoadWord(n + btNext))
	}
	if n != tm.NilAddr {
		t.Fatalf("leaf chain continues past the last leaf to node %d", n)
	}
	return keys, vals, shape
}

// btMatch fails the test unless the tree holds exactly the model's pairs.
func btMatch(t *testing.T, bt *btree, model map[uint64]uint64) btShape {
	t.Helper()
	keys, vals, shape := btCheck(t, bt)
	if len(keys) != len(model) {
		t.Fatalf("tree holds %d keys, the model %d", len(keys), len(model))
	}
	for i, k := range keys {
		if v, ok := model[k]; !ok || v != vals[i] {
			t.Fatalf("tree holds %d=%d, the model %d=%d (present %v)", k, vals[i], k, v, ok)
		}
	}
	return shape
}

// TestBTreeModel runs seeded random programs of insert, update, delete, get,
// range and span delete against a Go map, after a random or an ascending
// preload, under each backend; the structure and the contents are checked
// every 500 operations. Keys are multiples of three, so ranges and lookups
// also hit gaps, and span deletes empty whole leaves that later ranges and
// inserts cross.
func TestBTreeModel(t *testing.T) {
	const preload, ops = 1500, 12000
	seed := int64(0)
	for _, be := range btBackends {
		for _, asc := range []bool{false, true} {
			seed++
			name := be.name + "/random"
			if asc {
				name = be.name + "/ascending"
			}
			t.Run(name, func(t *testing.T) {
				h := tm.NewHeap(1<<18, 1)
				bt, err := newBTree(h)
				if err != nil {
					t.Fatal(err)
				}
				alg, c := be.alg(), tm.NewCtx(0, h)
				run := func(fn func(tx tm.Txn)) { tm.Run(alg, c, fn) }
				rng := rand.New(rand.NewSource(seed))
				model := map[uint64]uint64{}
				order := rng.Perm(preload)
				if asc {
					slices.Sort(order)
				}
				for _, i := range order {
					k := uint64(3 * i)
					run(func(tx tm.Txn) { bt.Insert(tx, k, k+1) })
					model[k] = k + 1
				}
				btMatch(t, bt, model)
				universe := 3 * 2 * preload
				for op := 0; op < ops; op++ {
					k := uint64(rng.Intn(universe))
					switch p := rng.Intn(100); {
					case p < 30:
						v := rng.Uint64()
						var inserted bool
						run(func(tx tm.Txn) { inserted = bt.Insert(tx, k, v) })
						if _, had := model[k]; inserted == had {
							t.Fatalf("op %d: insert %d reported inserted=%v with the key present=%v", op, k, inserted, had)
						}
						model[k] = v
					case p < 50:
						var ok bool
						run(func(tx tm.Txn) { ok = bt.Delete(tx, k) })
						if _, had := model[k]; ok != had {
							t.Fatalf("op %d: delete %d = %v, model has it: %v", op, k, ok, had)
						}
						delete(model, k)
					case p < 80:
						var v uint64
						var ok bool
						run(func(tx tm.Txn) { v, ok = bt.Get(tx, k) })
						if mv, had := model[k]; ok != had || v != mv {
							t.Fatalf("op %d: get %d = %d %v, model %d %v", op, k, v, ok, mv, had)
						}
					case p < 95:
						hi := k + uint64(rng.Intn(200))
						var got []uint64
						run(func(tx tm.Txn) {
							got = got[:0]
							bt.AscendRange(tx, k, hi, func(k, v uint64) bool {
								got = append(got, k, v)
								return true
							})
						})
						var want []uint64
						for x := k; x <= hi; x++ {
							if v, ok := model[x]; ok {
								want = append(want, x, v)
							}
						}
						if !slices.Equal(got, want) {
							t.Fatalf("op %d: range [%d, %d] = %v, model %v", op, k, hi, got, want)
						}
					default:
						hi := k + uint64(rng.Intn(300))
						run(func(tx tm.Txn) {
							for x := k; x <= hi; x++ {
								bt.Delete(tx, x)
							}
						})
						for x := k; x <= hi; x++ {
							delete(model, x)
						}
					}
					if op%500 == 0 {
						btMatch(t, bt, model)
					}
				}
				btMatch(t, bt, model)
			})
		}
	}
}

// TestBTreeSplitEveryPosition splits a full leaf and a full inner node
// around an insertion at every index, on and off the rightmost path, and
// checks that the two halves and the separator between them spell out
// exactly the node with the new entry in place, with eight keys a side for
// a leaf and eight and seven for an inner node (whose middle key moves up) —
// or, for an append on the rightmost path, the old node untouched and the
// new entry alone in the fresh one.
func TestBTreeSplitEveryPosition(t *testing.T) {
	for i := 0; i <= btMaxKeys; i++ {
		for _, rightmost := range []bool{false, true} {
			h := tm.NewHeap(1<<10, 1)
			n, r := h.MustAlloc(btNodeWords), h.MustAlloc(btNodeWords)
			var keys, slots []uint64 // the full node with the new entry at i
			for j := 0; j < btMaxKeys; j++ {
				keys = append(keys, uint64(10*j+10))
				slots = append(slots, uint64(1000+j))
			}
			sep := uint64(10*i + 5)
			keys = slices.Insert(keys, i, sep)
			alg, c := &stm.GlobalLock{}, tm.NewCtx(0, h)
			load := func(a tm.Addr, from, m int) []uint64 {
				var out []uint64
				for j := 0; j < m; j++ {
					out = append(out, h.LoadWord(a+tm.Addr(from+j)))
				}
				return out
			}
			count := func(a tm.Addr) int { return int(h.LoadWord(a+btHdr) & btCount) }

			// The leaf: a value per key, the new one at i.
			leafVals := slices.Insert(slices.Clone(slots), i, 2000)
			for j := 0; j < btMaxKeys; j++ {
				h.StoreWord(n+btKeys+tm.Addr(j), uint64(10*j+10))
				h.StoreWord(n+btVals+tm.Addr(j), uint64(1000+j))
			}
			h.StoreWord(n+btHdr, btMaxKeys)
			var up uint64
			tm.Run(alg, c, func(tx tm.Txn) { up, _ = splitLeaf(tx, n, i, sep, 2000, rightmost, r) })
			ln, rn := count(n), count(r)
			gotKeys := append(load(n+btKeys, 0, ln), load(r+btKeys, 0, rn)...)
			gotVals := append(load(n+btVals, 0, ln), load(r+btVals, 0, rn)...)
			if !slices.Equal(gotKeys, keys) || !slices.Equal(gotVals, leafVals) || up != h.LoadWord(r+btKeys) || tm.Addr(h.LoadWord(n+btNext)) != r {
				t.Fatalf("leaf split at %d (rightmost %v): keys %v vals %v separator %d", i, rightmost, gotKeys, gotVals, up)
			}
			if appended := rightmost && i == btMaxKeys; appended && rn != 1 || !appended && (ln != 8 || rn != 8) {
				t.Fatalf("leaf split at %d (rightmost %v): %d and %d keys", i, rightmost, ln, rn)
			}

			// The inner node: children 1000.. with the new one right after
			// the child at i.
			kids := append(slices.Clone(slots), 1000+btMaxKeys)
			kids = slices.Insert(kids, i+1, 2000)
			r = h.MustAlloc(btNodeWords)
			for j := 0; j < btMaxKeys; j++ {
				h.StoreWord(n+btKeys+tm.Addr(j), uint64(10*j+10))
			}
			for j := 0; j <= btMaxKeys; j++ {
				h.StoreWord(n+btKids+tm.Addr(j), uint64(1000+j))
			}
			h.StoreWord(n+btHdr, 1<<btLevel|btMaxKeys)
			tm.Run(alg, c, func(tx tm.Txn) { up, _ = splitInner(tx, n, i, sep, 2000, rightmost, r) })
			ln, rn = count(n), count(r)
			gotKeys = append(append(load(n+btKeys, 0, ln), up), load(r+btKeys, 0, rn)...)
			gotKids := append(load(n+btKids, 0, ln+1), load(r+btKids, 0, rn+1)...)
			if !slices.Equal(gotKeys, keys) || !slices.Equal(gotKids, kids) || h.LoadWord(r+btHdr)>>btLevel != 1 {
				t.Fatalf("inner split at %d (rightmost %v): keys %v children %v", i, rightmost, gotKeys, gotKids)
			}
			if appended := rightmost && i == btMaxKeys; appended && rn != 0 || !appended && (min(ln, rn) != 7 || max(ln, rn) != 8) {
				t.Fatalf("inner split at %d (rightmost %v): %d and %d keys", i, rightmost, ln, rn)
			}
		}
	}
}

// TestBTreeAscendingLoadFillsNodes: an ascending load splits only on the
// rightmost path, at the leaves and at every inner level, root included, and
// those appending splits move nothing, so every leaf but the last holds 15
// keys and every inner node off the rightmost path holds 16 children. The
// same keys in random order build a tree about two thirds full.
func TestBTreeAscendingLoadFillsNodes(t *testing.T) {
	const keys = 15*16*16*2 + 7 // three inner levels
	for _, asc := range []bool{true, false} {
		h := tm.NewHeap(1<<18, 1)
		bt, err := newBTree(h)
		if err != nil {
			t.Fatal(err)
		}
		alg, c := &htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)}, tm.NewCtx(0, h)
		model := map[uint64]uint64{}
		order := rand.New(rand.NewSource(1)).Perm(keys)
		if asc {
			slices.Sort(order)
		}
		for _, i := range order {
			k := uint64(i) << 8
			tm.Run(alg, c, func(tx tm.Txn) { bt.Insert(tx, k, k) })
			model[k] = k
		}
		shape := btMatch(t, bt, model)
		fill := float64(keys) / float64(btMaxKeys*len(shape.leaves))
		t.Logf("ascending=%v: %d levels, %d leaves, %d inner nodes, leaf fill %.2f, %d words allocated",
			asc, shape.levels, len(shape.leaves), shape.inner, fill, h.Allocated())
		if !asc {
			if fill < 0.55 || fill > 0.85 {
				t.Errorf("random load: leaf fill %.2f, want about two thirds", fill)
			}
			continue
		}
		if shape.levels != 4 {
			t.Errorf("ascending load of %d keys built %d levels, want 4", keys, shape.levels)
		}
		for i, n := range shape.leaves[:len(shape.leaves)-1] {
			if n != btMaxKeys {
				t.Fatalf("ascending load: leaf %d holds %d keys, want %d", i, n, btMaxKeys)
			}
		}
		if shape.innerNotFull != 0 {
			t.Errorf("ascending load: %d inner nodes off the rightmost path are not full", shape.innerNotFull)
		}
	}
}

// TestBTreeEmptiedLeaves: deletes that empty whole leaves leave them linked
// and the separators valid — ranges across them, lookups in them and inserts
// into them all answer as a map would — and putting the same keys back
// allocates nothing.
func TestBTreeEmptiedLeaves(t *testing.T) {
	h := tm.NewHeap(1<<16, 1)
	bt, err := newBTree(h)
	if err != nil {
		t.Fatal(err)
	}
	alg, c := stm.TL2{}, tm.NewCtx(0, h)
	run := func(fn func(tx tm.Txn)) { tm.Run(alg, c, fn) }
	model := map[uint64]uint64{}
	for k := uint64(0); k < 1500; k++ {
		run(func(tx tm.Txn) { bt.Insert(tx, k, k) })
		model[k] = k
	}
	words := h.Allocated()
	for k := uint64(150); k < 1350; k++ {
		run(func(tx tm.Txn) { bt.Delete(tx, k) })
		delete(model, k)
	}
	shape := btMatch(t, bt, model)
	empty := 0
	for _, n := range shape.leaves {
		if n == 0 {
			empty++
		}
	}
	if empty != 80 {
		t.Errorf("%d empty leaves, want 80", empty)
	}
	var got []uint64
	run(func(tx tm.Txn) {
		got = got[:0]
		bt.AscendRange(tx, 140, 1360, func(k, _ uint64) bool { got = append(got, k); return true })
	})
	want := append(seq(140, 150), seq(1350, 1361)...)
	if !slices.Equal(got, want) {
		t.Errorf("range across the emptied leaves = %v, want %v", got, want)
	}
	for _, k := range []uint64{150, 700, 1349} {
		var ok bool
		run(func(tx tm.Txn) { _, ok = bt.Get(tx, k) })
		if ok {
			t.Errorf("get %d found a deleted key", k)
		}
	}
	for k := uint64(1349); k >= 150; k-- {
		run(func(tx tm.Txn) { bt.Insert(tx, k, k+1) })
		model[k] = k + 1
	}
	btMatch(t, bt, model)
	if h.Allocated() != words {
		t.Errorf("refilling the emptied leaves allocated %d words", h.Allocated()-words)
	}
}

// seq returns lo, lo+1, ..., hi-1.
func seq(lo, hi uint64) []uint64 {
	var s []uint64
	for k := lo; k < hi; k++ {
		s = append(s, k)
	}
	return s
}

// TestBTreeConcurrent puts two goroutines on one tree. Each owns the keys of
// its parity and keeps its count constant — every transaction deletes one
// of its keys and inserts another, splitting leaves and inner nodes as it
// goes — while every 16th transaction scans the whole tree and must see
// exactly the preloaded number of keys, ascending, each carrying its own
// value. At the end the tree must hold what the two goroutines' models say.
func TestBTreeConcurrent(t *testing.T) {
	const preload, txns = 1000, 2000
	for _, be := range btBackends[:2] {
		t.Run(be.name, func(t *testing.T) {
			h := tm.NewHeap(1<<18, 2)
			bt, err := newBTree(h)
			if err != nil {
				t.Fatal(err)
			}
			alg := be.alg()
			val := func(k uint64) uint64 { return k*7 + 1 }
			models := [2]map[uint64]bool{{}, {}}
			c0 := tm.NewCtx(0, h)
			for k := uint64(0); k < preload; k++ {
				tm.Run(alg, c0, func(tx tm.Txn) { bt.Insert(tx, k<<4, val(k<<4)) })
				models[k%2][k<<4] = true
			}
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := tm.NewCtx(g, h)
					rng := rand.New(rand.NewSource(int64(g + 1)))
					model := models[g]
					owned := make([]uint64, 0, len(model))
					for k := range model {
						owned = append(owned, k)
					}
					slices.Sort(owned)
					for i := 0; i < txns; i++ {
						if i%16 == 0 {
							var n int
							var bad error
							tm.Run(alg, c, func(tx tm.Txn) {
								n, bad = 0, nil
								prev := uint64(0)
								bt.AscendRange(tx, 0, ^uint64(0), func(k, v uint64) bool {
									if (n > 0 && k <= prev) || v != val(k) {
										bad = fmt.Errorf("scan saw %d=%d after %d", k, v, prev)
									}
									n, prev = n+1, k
									return true
								})
							})
							if bad == nil && n != preload {
								bad = fmt.Errorf("scan saw %d keys, want %d", n, preload)
							}
							if bad != nil {
								errs <- bad
								return
							}
						}
						j := rng.Intn(len(owned))
						gone := owned[j]
						// A fresh key of this goroutine's parity, often just past
						// the largest, so the rightmost path splits too.
						fresh := (uint64(rng.Intn(preload<<5))&^1 | uint64(g)) << 4
						if rng.Intn(4) == 0 {
							fresh = (uint64(preload<<5+2*i) | uint64(g)) << 4
						}
						if model[fresh] {
							continue
						}
						tm.Run(alg, c, func(tx tm.Txn) {
							bt.Delete(tx, gone)
							bt.Insert(tx, fresh, val(fresh))
						})
						delete(model, gone)
						model[fresh] = true
						owned[j] = fresh
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			union := map[uint64]uint64{}
			for _, m := range models {
				for k := range m {
					union[k] = val(k)
				}
			}
			btMatch(t, bt, union)
		})
	}
}

// TestSpanCyclesDoNotGrowTheHeap: a split and a merge move the same span out
// of a store and back in, over and over. After the first cycle the heap
// must not grow: the deleted keys' leaves stay in the tree, and the same
// keys fill them again to the same counts.
func TestSpanCyclesDoNotGrowTheHeap(t *testing.T) {
	h := tm.NewHeap(1<<18, 1)
	st, err := NewStore(h)
	if err != nil {
		t.Fatal(err)
	}
	alg, c := &htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)}, tm.NewCtx(0, h)
	run := func(fn func(tx tm.Txn)) { tm.Run(alg, c, fn) }
	for _, k := range rand.New(rand.NewSource(1)).Perm(8192) {
		run(func(tx tm.Txn) { st.Put(tx, 0, uint64(k), uint64(k)) })
	}
	const lo, hi, batch = 2000, 5999, 256
	var keys, vals []uint64
	for next, more := uint64(lo), true; more; {
		run(func(tx tm.Txn) {
			var ks, vs []uint64
			ks, vs, next, more = st.ExportSpan(tx, next, hi, batch)
			keys, vals = append(keys, ks...), append(vals, vs...)
		})
	}
	if len(keys) != hi-lo+1 {
		t.Fatalf("exported %d keys, want %d", len(keys), hi-lo+1)
	}
	var words int
	for cycle := 1; cycle <= 50; cycle++ {
		for more := true; more; {
			run(func(tx tm.Txn) { _, more = st.DeleteSpan(tx, 0, lo, hi, batch) })
		}
		for i := 0; i < len(keys); i += batch {
			j := min(i+batch, len(keys))
			run(func(tx tm.Txn) { st.InstallPairs(tx, 0, keys[i:j], vals[i:j]) })
		}
		if cycle == 1 {
			words = h.Allocated()
		} else if h.Allocated() != words {
			t.Fatalf("cycle %d: %d words allocated, %d after the first cycle", cycle, h.Allocated(), words)
		}
	}
	model := map[uint64]uint64{}
	for k := uint64(0); k < 8192; k++ {
		model[k] = k
	}
	btMatch(t, st.kv, model)
}

// TestRoomIsNeverOptimistic walks a store up to the edge of a small heap:
// for as long as Room(n) says yes, n fresh keys go in as one transaction,
// the way a cross-shard mput applies its part, and none of those
// transactions may run out of heap. For small batches Room must also say
// yes until the heap is nearly full, or it would refuse batches that fit.
func TestRoomIsNeverOptimistic(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64} {
		for _, asc := range []bool{false, true} {
			h := tm.NewHeap(1<<15, 1)
			st, err := NewStore(h)
			if err != nil {
				t.Fatal(err)
			}
			alg, c := &htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)}, tm.NewCtx(0, h)
			rng := rand.New(rand.NewSource(int64(n)))
			next := uint64(0)
			inserted := 0
			for st.kv.Room(n) {
				batch := make([]uint64, n)
				for i := range batch {
					if batch[i] = rng.Uint64(); asc {
						batch[i], next = next, next+1
					}
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("n=%d ascending=%v: Room(%d) said yes after %d keys, then: %v", n, asc, n, inserted, r)
						}
					}()
					tm.Run(alg, c, func(tx tm.Txn) {
						for _, k := range batch {
							st.Put(tx, 0, k, k)
						}
					})
				}()
				inserted += n
			}
			free := h.Words() - h.Allocated()
			t.Logf("n=%-3d ascending=%-5v: %5d keys in, Room(%d) false with %5d of %d words free", n, asc, inserted, n, free, h.Words())
			if n <= 4 && free > h.Words()/16 {
				t.Errorf("n=%d ascending=%v: Room refused with %d of %d words free", n, asc, free, h.Words())
			}
		}
	}
}

// TestRoomCoversAFullPath: the case Room(1) must cover is an insert that
// splits every node on its path and then the root. An ascending load of
// 15·16^(L-1) keys builds exactly that path, L levels deep. On the smallest
// heap for which Room(1) says yes in that state, the next insert must fit.
func TestRoomCoversAFullPath(t *testing.T) {
	for levels, keys := 1, btMaxKeys; levels <= 3; levels, keys = levels+1, keys*(btMaxKeys+1) {
		build := func(words int) (*Store, *tm.Heap) {
			h := tm.NewHeap(words, 1)
			st, err := NewStore(h)
			if err != nil {
				t.Fatal(err)
			}
			c := tm.NewCtx(0, h)
			for k := 0; k < keys; k++ {
				tm.Run(&stm.GlobalLock{}, c, func(tx tm.Txn) { st.Put(tx, 0, uint64(k), 0) })
			}
			return st, h
		}
		_, h := build(1 << 16)
		lo, hi := h.Allocated(), h.Allocated()+1<<12
		for lo < hi {
			if mid := (lo + hi) / 2; func() bool { st, _ := build(mid); return st.kv.Room(1) }() {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		st, h := build(lo)
		if got := int(h.LoadWord(st.kv.root+btHdr)>>btLevel) + 1; got != levels {
			t.Fatalf("%d ascending keys built %d levels, want %d", keys, got, levels)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%d levels: Room(1) said yes with %d words free, then the insert failed: %v", levels, h.Words()-h.Allocated(), r)
				}
			}()
			tm.Run(&stm.GlobalLock{}, tm.NewCtx(0, h), func(tx tm.Txn) { st.Put(tx, 0, uint64(keys), 0) })
		}()
		if got := int(h.LoadWord(st.kv.root+btHdr)>>btLevel) + 1; got != levels+1 {
			t.Fatalf("the insert after %d keys left %d levels, want %d", keys, got, levels+1)
		}
	}
}

// TestFenceHeaderIsOneStripe: the placement epoch, the fence occupancy and
// epoch words, and all of entry 0 share one ownership stripe wherever the
// heap's allocation cursor stands when the store is built — every keyed
// operation's guard reads the header, so it must cost one stripe by
// construction, not by the luck of what was allocated first.
func TestFenceHeaderIsOneStripe(t *testing.T) {
	for pre := 0; pre < stripeWords; pre++ {
		h := tm.NewHeap(1<<12, 1)
		if pre > 0 {
			h.MustAlloc(pre)
		}
		st, err := NewStore(h)
		if err != nil {
			t.Fatal(err)
		}
		token, epoch, beat := st.FenceSlotWordsOf(0)
		words := []tm.Addr{st.PlacementWord(), st.FenceOccWord(), st.FenceEpochWord(), token, epoch, beat, st.slotAddr(0) + fsSig}
		for _, a := range words {
			if h.Stripe(a) != h.Stripe(words[0]) {
				t.Errorf("cursor at %d: word %d is on stripe %d, the placement epoch on %d", pre+1, a, h.Stripe(a), h.Stripe(words[0]))
			}
		}
	}
}
