package serve

import "repro/internal/tm"

// stripeWords is the number of heap words one ownership stripe covers: the
// unit in which every TM backend tracks conflicts and the simulated HTM
// pays a read mark or a writer claim.
const stripeWords = 1 << tm.StripeShift

// allocAligned reserves n words that start on a stripe boundary, so that an
// object of at most stripeWords words occupies one stripe and a larger one
// no more stripes than it has to. The pad costs up to stripeWords-1 words
// per call. The words are zero: the heap hands out each word once.
func allocAligned(h *tm.Heap, n int) (tm.Addr, error) {
	a, err := h.Alloc(n + stripeWords - 1)
	if err != nil {
		return tm.NilAddr, err
	}
	return (a + stripeWords - 1) &^ (stripeWords - 1), nil
}

// B+-tree node layout: 32 words, four stripes, allocated on a stripe
// boundary. Word 0 holds the key count and the node's level (0 for a leaf,
// so the leaf test is level == 0); words 1-15 hold the keys in ascending
// order. A leaf keeps the value of key i at word 16+i and the address of the
// next leaf at word 31; an inner node keeps its count+1 children at words
// 16-31. A descent through a full node reads its header and key stripes and
// one of its two child stripes.
const (
	btHdr       = 0
	btKeys      = 1
	btVals      = 16
	btKids      = 16
	btNext      = 31
	btNodeWords = 32
	btMaxKeys   = 15
	btLevel     = 8 // the level sits above the count in the header word
	btCount     = 1<<btLevel - 1

	// btMaxDepth bounds the levels of a tree. Only a full node splits and
	// no node ever shrinks, so every inner node but the rightmost of its
	// level keeps at least eight children: a tree L levels deep has more
	// than 7^(L-2) leaves, and a heap of 2^32 words holds fewer than 2^27.
	btMaxDepth = 16
)

// btree is the store's sorted key-value index: a B+-tree in the
// transactional heap whose nodes are laid out along the ownership stripes,
// so a transaction pays for the stripes an operation needs rather than for
// the nodes a binary tree would visit. The root node never moves — a root
// split copies the root into a fresh node and turns the root into its parent
// — so no operation reads a root pointer. Deletes never merge nodes: an
// emptied leaf stays on the leaf chain and the separators above it stay
// valid bounds. Every method runs inside the caller's transaction.
type btree struct {
	h    *tm.Heap
	root tm.Addr
}

// newBTree allocates an empty tree: a root leaf with no keys.
func newBTree(h *tm.Heap) (*btree, error) {
	root, err := allocAligned(h, btNodeWords)
	if err != nil {
		return nil, err
	}
	return &btree{h: h, root: root}, nil
}

// newNodes allocates n consecutive nodes inside a transaction. It runs
// before an insert stores anything, so a full heap fails the operation
// with nothing written; the panic carries tm.ErrHeapExhausted, which the
// server answers 507.
func (t *btree) newNodes(n int) tm.Addr {
	a, err := allocAligned(t.h, n*btNodeWords)
	if err != nil {
		panic(err)
	}
	return a
}

// Room reports whether the heap can hold the nodes of n fresh inserts in the
// worst case: an insert splits every node on its path, a root split takes
// one node more, and each insert pays one alignment pad. The path can
// lengthen during the batch, but only by one level per 14 inserts: after a
// root split the root holds one key, and each insert adds at most one. Like
// the heap it reads, the answer holds only as long as nobody else allocates
// in between.
func (t *btree) Room(n int) bool {
	levels := int(t.h.LoadWord(t.root+btHdr)>>btLevel) + 1
	grow := (n + btMaxKeys - 3) / (btMaxKeys - 1) // ⌈(n-1)/14⌉
	need := n * ((levels+grow+1)*btNodeWords + stripeWords - 1)
	return t.h.Words()-t.h.Allocated() >= need
}

// btHeadKeys is the number of keys that share the header's stripe.
const btHeadKeys = stripeWords - btKeys

// seek binary-searches node n's cnt keys for k and returns the first index
// whose key is ≥ k, and whether that key equals k. While the interval spans
// both key stripes, the probe is the last key of the header's stripe, so a
// search that ends below it reads no other key stripe; that costs no extra
// probe on a full node (6 keys on one side, 8 on the other).
func seek(tx tm.Txn, n tm.Addr, cnt int, k uint64) (i int, eq bool) {
	hi := cnt
	for i < hi {
		m := int(uint(i+hi) >> 1)
		if i < btHeadKeys && hi > btHeadKeys {
			m = btHeadKeys - 1
		}
		if mk := tx.Load(n + btKeys + tm.Addr(m)); mk < k {
			i = m + 1
		} else {
			hi, eq = m, mk == k
		}
	}
	return i, eq
}

// child returns the index of the child of inner node n that covers k: the
// number of separators ≤ k.
func child(tx tm.Txn, n tm.Addr, cnt int, k uint64) int {
	i, eq := seek(tx, n, cnt, k)
	if eq {
		i++
	}
	return i
}

// leaf descends to the leaf that covers k and returns it with its count.
func (t *btree) leaf(tx tm.Txn, k uint64) (n tm.Addr, cnt int) {
	n = t.root
	hdr := tx.Load(n + btHdr)
	for hdr>>btLevel != 0 {
		i := child(tx, n, int(hdr&btCount), k)
		n = tm.Addr(tx.Load(n + btKids + tm.Addr(i)))
		hdr = tx.Load(n + btHdr)
	}
	return n, int(hdr & btCount)
}

// Get returns the value stored at k.
func (t *btree) Get(tx tm.Txn, k uint64) (uint64, bool) {
	n, cnt := t.leaf(tx, k)
	if i, eq := seek(tx, n, cnt, k); eq {
		return tx.Load(n + btVals + tm.Addr(i)), true
	}
	return 0, false
}

// Delete removes k, reporting whether it was present. The leaf's later
// entries shift down by one; nothing else changes.
func (t *btree) Delete(tx tm.Txn, k uint64) bool {
	n, cnt := t.leaf(tx, k)
	i, eq := seek(tx, n, cnt, k)
	if !eq {
		return false
	}
	for j := tm.Addr(i); j < tm.Addr(cnt-1); j++ {
		tx.Store(n+btKeys+j, tx.Load(n+btKeys+j+1))
		tx.Store(n+btVals+j, tx.Load(n+btVals+j+1))
	}
	tx.Store(n+btHdr, uint64(cnt-1))
	return true
}

// AscendRange visits every key in [lo, hi] in ascending order, calling
// visit for each; visiting stops early when visit returns false. It
// descends once and then walks the leaf chain.
func (t *btree) AscendRange(tx tm.Txn, lo, hi uint64, visit func(k, v uint64) bool) {
	n, cnt := t.leaf(tx, lo)
	i, _ := seek(tx, n, cnt, lo)
	for {
		for ; i < cnt; i++ {
			k := tx.Load(n + btKeys + tm.Addr(i))
			if k > hi || !visit(k, tx.Load(n+btVals+tm.Addr(i))) {
				return
			}
		}
		if n = tm.Addr(tx.Load(n + btNext)); n == tm.NilAddr {
			return
		}
		i, cnt = 0, int(tx.Load(n+btHdr)&btCount)
	}
}

// pathStep is one inner node of an insert's descent: the node, its key
// count, the child taken, and whether the node lies on the tree's rightmost
// path.
type pathStep struct {
	n     tm.Addr
	cnt   int
	i     int
	right bool
}

// Insert adds or updates k; it returns false if the key already existed, in
// which case it stored one word, the value. A new key goes into its leaf;
// a full leaf splits, and the split propagates up the descent's path, held
// on the stack, for as long as the parents are full.
func (t *btree) Insert(tx tm.Txn, k, v uint64) bool {
	var path [btMaxDepth]pathStep
	depth, right := 0, true
	n := t.root
	hdr := tx.Load(n + btHdr)
	for hdr>>btLevel != 0 {
		cnt := int(hdr & btCount)
		i := child(tx, n, cnt, k)
		path[depth] = pathStep{n: n, cnt: cnt, i: i, right: right}
		depth++
		right = right && i == cnt
		n = tm.Addr(tx.Load(n + btKids + tm.Addr(i)))
		hdr = tx.Load(n + btHdr)
	}
	cnt := int(hdr & btCount)
	i, eq := seek(tx, n, cnt, k)
	if eq {
		tx.Store(n+btVals+tm.Addr(i), v)
		return false
	}
	if cnt < btMaxKeys {
		insertLeaf(tx, n, cnt, i, k, v)
		return true
	}

	// Every split node needs one fresh node, and a root split one more for
	// the copy of the old root: allocate them all before storing anything.
	need, top := 1, depth-1
	for top >= 0 && path[top].cnt == btMaxKeys {
		need++
		top--
	}
	if top < 0 {
		need++
	}
	fresh := t.newNodes(need)
	sep, r := splitLeaf(tx, n, i, k, v, right, fresh)
	for l := depth - 1; ; l-- {
		fresh += btNodeWords
		if l < 0 {
			t.splitRoot(tx, sep, r, fresh)
			return true
		}
		p := path[l]
		if p.cnt < btMaxKeys {
			insertInner(tx, p.n, p.cnt, p.i, sep, r)
			return true
		}
		sep, r = splitInner(tx, p.n, p.i, sep, r, p.right, fresh)
	}
}

// insertLeaf puts (k, v) at index i of leaf n, which holds cnt < 15 keys.
func insertLeaf(tx tm.Txn, n tm.Addr, cnt, i int, k, v uint64) {
	for j := tm.Addr(cnt); j > tm.Addr(i); j-- {
		tx.Store(n+btKeys+j, tx.Load(n+btKeys+j-1))
		tx.Store(n+btVals+j, tx.Load(n+btVals+j-1))
	}
	tx.Store(n+btKeys+tm.Addr(i), k)
	tx.Store(n+btVals+tm.Addr(i), v)
	tx.Store(n+btHdr, uint64(cnt+1))
}

// insertInner puts separator sep at key index i of inner node n, which
// holds cnt < 15 keys, and child c right after it, at child index i+1.
func insertInner(tx tm.Txn, n tm.Addr, cnt, i int, sep uint64, c tm.Addr) {
	for j := tm.Addr(cnt); j > tm.Addr(i); j-- {
		tx.Store(n+btKeys+j, tx.Load(n+btKeys+j-1))
		tx.Store(n+btKids+j+1, tx.Load(n+btKids+j))
	}
	tx.Store(n+btKeys+tm.Addr(i), sep)
	tx.Store(n+btKids+tm.Addr(i)+1, uint64(c))
	tx.Store(n+btHdr, tx.Load(n+btHdr)+1)
}

// move copies the m entries of node src starting at index from to the start
// of the empty node dst (keys and the values or children at the same
// index); an inner node's extra last child is the caller's.
func move(tx tm.Txn, src tm.Addr, from int, dst tm.Addr, m int) {
	for j := tm.Addr(0); j < tm.Addr(m); j++ {
		tx.Store(dst+btKeys+j, tx.Load(src+btKeys+tm.Addr(from)+j))
		tx.Store(dst+btVals+j, tx.Load(src+btVals+tm.Addr(from)+j))
	}
}

// splitLeaf splits the full leaf n around the insertion of (k, v) at index
// i into n and the fresh leaf r, and returns the separator the parent needs:
// r's first key. An append to the rightmost leaf moves nothing — r holds
// just the new key — so an ascending load fills every leaf; any other split
// leaves eight keys on each side.
func splitLeaf(tx tm.Txn, n tm.Addr, i int, k, v uint64, rightmost bool, r tm.Addr) (uint64, tm.Addr) {
	const half = (btMaxKeys + 1) / 2
	switch {
	case rightmost && i == btMaxKeys:
		insertLeaf(tx, r, 0, 0, k, v)
	case i < half: // n keeps seven keys and takes the new one
		move(tx, n, half-1, r, half)
		tx.Store(r+btHdr, half)
		tx.Store(r+btNext, tx.Load(n+btNext))
		insertLeaf(tx, n, half-1, i, k, v)
	default: // n keeps eight keys, r takes seven and the new one
		move(tx, n, half, r, btMaxKeys-half)
		tx.Store(r+btNext, tx.Load(n+btNext))
		tx.Store(n+btHdr, half)
		insertLeaf(tx, r, btMaxKeys-half, i-half, k, v)
	}
	tx.Store(n+btNext, uint64(r))
	return tx.Load(r + btKeys), r
}

// splitInner splits the full inner node n around the insertion of separator
// sep and child c at key index i into n and the fresh node r, and returns
// the separator that moves up with r. An append on the tree's rightmost path
// moves nothing: r starts with no keys and c as its only child, and sep
// moves up. Any other split leaves eight keys on one side and seven on the
// other.
func splitInner(tx tm.Txn, n tm.Addr, i int, sep uint64, c tm.Addr, rightmost bool, r tm.Addr) (uint64, tm.Addr) {
	const half = (btMaxKeys + 1) / 2
	level := tx.Load(n+btHdr) &^ btCount
	if rightmost && i == btMaxKeys {
		tx.Store(r+btHdr, level)
		tx.Store(r+btKids, uint64(c))
		return sep, r
	}
	// Key u of n moves up; the keys after it and their children go to r,
	// and sep goes to whichever side covers index i.
	u := half
	if i <= half {
		u = half - 1
	}
	up := tx.Load(n + btKeys + tm.Addr(u))
	move(tx, n, u+1, r, btMaxKeys-u-1)
	tx.Store(r+btKids+tm.Addr(btMaxKeys-u-1), tx.Load(n+btKids+btMaxKeys))
	tx.Store(r+btHdr, level|uint64(btMaxKeys-u-1))
	tx.Store(n+btHdr, level|uint64(u))
	if i <= u {
		insertInner(tx, n, u, i, sep, c)
	} else {
		insertInner(tx, r, btMaxKeys-u-1, i-u-1, sep, c)
	}
	return up, r
}

// splitRoot finishes a split that reached the root: the root's contents
// move to the fresh node l, and the root becomes the parent of l and r, one
// level higher.
func (t *btree) splitRoot(tx tm.Txn, sep uint64, r, l tm.Addr) {
	hdr := tx.Load(t.root + btHdr)
	for j := tm.Addr(0); j < btNodeWords; j++ {
		tx.Store(l+j, tx.Load(t.root+j))
	}
	tx.Store(t.root+btHdr, (hdr>>btLevel+1)<<btLevel|1)
	tx.Store(t.root+btKeys, sep)
	tx.Store(t.root+btKids, uint64(l))
	tx.Store(t.root+btKids+1, uint64(r))
}
