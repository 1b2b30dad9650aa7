package workloads

import "repro/internal/tm"

// RBTree is the concurrent red-black tree benchmark: a sorted map stored in
// the transactional heap, exercised with a configurable mix of lookups,
// inserts and deletes over a bounded key range (the paper's "Red-Black
// Tree" data-structure workload, whose optimum flips between HTM tunings
// and STMs as the update ratio and range change).
type RBTree struct {
	// KeyRange bounds the keys (default 1 << 14).
	KeyRange int
	// UpdateRatio is the fraction of operations that mutate (default
	// 0.2); mutations split evenly between insert and delete.
	UpdateRatio float64
	// InitialSize pre-populates the tree (default KeyRange/2).
	InitialSize int

	set *RBSet
}

// Name implements Workload.
func (t *RBTree) Name() string { return "rbtree" }

func (t *RBTree) params() (keyRange, initial int, update float64) {
	keyRange = t.KeyRange
	if keyRange <= 0 {
		keyRange = 1 << 14
	}
	initial = t.InitialSize
	if initial <= 0 {
		initial = keyRange / 2
	}
	update = t.UpdateRatio
	if update == 0 {
		update = 0.2
	}
	return
}

// Setup implements Workload.
func (t *RBTree) Setup(h *tm.Heap, rng *Rand) error {
	keyRange, initial, _ := t.params()
	set, err := NewRBSet(h)
	if err != nil {
		return err
	}
	t.set = set
	seq := NewBareRunner(seqAlg(), h, 1)
	for i := 0; i < initial; i++ {
		k := uint64(rng.Intn(keyRange))
		seq.Atomic(0, func(tx tm.Txn) { t.set.Insert(tx, 0, k, k) })
	}
	return nil
}

// Op implements Workload.
func (t *RBTree) Op(r Runner, self int, rng *Rand) {
	keyRange, _, update := t.params()
	k := uint64(rng.Intn(keyRange))
	p := rng.Float64()
	switch {
	case p < update/2:
		r.Atomic(self, func(tx tm.Txn) { t.set.Insert(tx, self, k, k) })
	case p < update:
		r.Atomic(self, func(tx tm.Txn) { t.set.Delete(tx, self, k) })
	default:
		r.Atomic(self, func(tx tm.Txn) { t.set.Contains(tx, k) })
	}
}

// Set exposes the underlying RBSet (for validation in tests).
func (t *RBTree) Set() *RBSet { return t.set }

// --- Red-black tree implementation over the transactional heap --------------

// Node layout (7 words): key, val, left, right, parent, color, pad.
const (
	rbKey = iota
	rbVal
	rbLeft
	rbRight
	rbParent
	rbColor
	rbPad
	rbNodeWords
)

const (
	rbRed   = 0
	rbBlack = 1
)

// RBSet is a red-black-tree map with transactional operations. The root
// pointer lives in a heap word so the whole structure is TM-managed.
// Deleted nodes are recycled through a NodePool.
type RBSet struct {
	root tm.Addr // heap word holding the root node address
	pool *NodePool
}

// NewRBSet allocates an empty set.
func NewRBSet(h *tm.Heap) (*RBSet, error) {
	root, err := h.Alloc(1)
	if err != nil {
		return nil, err
	}
	pool, err := NewNodePool(h, rbNodeWords, rbPad)
	if err != nil {
		return nil, err
	}
	return &RBSet{root: root, pool: pool}, nil
}

// Contains reports whether key k is present.
func (s *RBSet) Contains(tx tm.Txn, k uint64) bool {
	n := tm.Addr(tx.Load(s.root))
	for n != tm.NilAddr {
		nk := tx.Load(n + rbKey)
		switch {
		case k == nk:
			return true
		case k < nk:
			n = tm.Addr(tx.Load(n + rbLeft))
		default:
			n = tm.Addr(tx.Load(n + rbRight))
		}
	}
	return false
}

// Get returns the value stored at k.
func (s *RBSet) Get(tx tm.Txn, k uint64) (uint64, bool) {
	n := tm.Addr(tx.Load(s.root))
	for n != tm.NilAddr {
		nk := tx.Load(n + rbKey)
		switch {
		case k == nk:
			return tx.Load(n + rbVal), true
		case k < nk:
			n = tm.Addr(tx.Load(n + rbLeft))
		default:
			n = tm.Addr(tx.Load(n + rbRight))
		}
	}
	return 0, false
}

// Insert adds or updates key k on behalf of worker slot self; it returns
// false if the key already existed (in which case only the value is
// updated).
func (s *RBSet) Insert(tx tm.Txn, self int, k, v uint64) bool {
	var parent tm.Addr
	n := tm.Addr(tx.Load(s.root))
	for n != tm.NilAddr {
		nk := tx.Load(n + rbKey)
		if k == nk {
			tx.Store(n+rbVal, v)
			return false
		}
		parent = n
		if k < nk {
			n = tm.Addr(tx.Load(n + rbLeft))
		} else {
			n = tm.Addr(tx.Load(n + rbRight))
		}
	}
	fresh := s.pool.Get(tx, self)
	tx.Store(fresh+rbKey, k)
	tx.Store(fresh+rbVal, v)
	tx.Store(fresh+rbLeft, uint64(tm.NilAddr))
	tx.Store(fresh+rbRight, uint64(tm.NilAddr))
	tx.Store(fresh+rbParent, uint64(parent))
	tx.Store(fresh+rbColor, rbRed)
	if parent == tm.NilAddr {
		tx.Store(s.root, uint64(fresh))
	} else if k < tx.Load(parent+rbKey) {
		tx.Store(parent+rbLeft, uint64(fresh))
	} else {
		tx.Store(parent+rbRight, uint64(fresh))
	}
	s.insertFixup(tx, fresh)
	return true
}

func (s *RBSet) insertFixup(tx tm.Txn, z tm.Addr) {
	for {
		p := tm.Addr(tx.Load(z + rbParent))
		if p == tm.NilAddr || tx.Load(p+rbColor) != rbRed {
			break
		}
		g := tm.Addr(tx.Load(p + rbParent))
		if g == tm.NilAddr {
			break
		}
		if p == tm.Addr(tx.Load(g+rbLeft)) {
			y := tm.Addr(tx.Load(g + rbRight))
			if y != tm.NilAddr && tx.Load(y+rbColor) == rbRed {
				tx.Store(p+rbColor, rbBlack)
				tx.Store(y+rbColor, rbBlack)
				tx.Store(g+rbColor, rbRed)
				z = g
				continue
			}
			if z == tm.Addr(tx.Load(p+rbRight)) {
				z = p
				s.rotateLeft(tx, z)
				p = tm.Addr(tx.Load(z + rbParent))
				g = tm.Addr(tx.Load(p + rbParent))
			}
			tx.Store(p+rbColor, rbBlack)
			tx.Store(g+rbColor, rbRed)
			s.rotateRight(tx, g)
		} else {
			y := tm.Addr(tx.Load(g + rbLeft))
			if y != tm.NilAddr && tx.Load(y+rbColor) == rbRed {
				tx.Store(p+rbColor, rbBlack)
				tx.Store(y+rbColor, rbBlack)
				tx.Store(g+rbColor, rbRed)
				z = g
				continue
			}
			if z == tm.Addr(tx.Load(p+rbLeft)) {
				z = p
				s.rotateRight(tx, z)
				p = tm.Addr(tx.Load(z + rbParent))
				g = tm.Addr(tx.Load(p + rbParent))
			}
			tx.Store(p+rbColor, rbBlack)
			tx.Store(g+rbColor, rbRed)
			s.rotateLeft(tx, g)
		}
	}
	root := tm.Addr(tx.Load(s.root))
	tx.Store(root+rbColor, rbBlack)
}

func (s *RBSet) rotateLeft(tx tm.Txn, x tm.Addr) {
	y := tm.Addr(tx.Load(x + rbRight))
	yl := tm.Addr(tx.Load(y + rbLeft))
	tx.Store(x+rbRight, uint64(yl))
	if yl != tm.NilAddr {
		tx.Store(yl+rbParent, uint64(x))
	}
	xp := tm.Addr(tx.Load(x + rbParent))
	tx.Store(y+rbParent, uint64(xp))
	switch {
	case xp == tm.NilAddr:
		tx.Store(s.root, uint64(y))
	case x == tm.Addr(tx.Load(xp+rbLeft)):
		tx.Store(xp+rbLeft, uint64(y))
	default:
		tx.Store(xp+rbRight, uint64(y))
	}
	tx.Store(y+rbLeft, uint64(x))
	tx.Store(x+rbParent, uint64(y))
}

func (s *RBSet) rotateRight(tx tm.Txn, x tm.Addr) {
	y := tm.Addr(tx.Load(x + rbLeft))
	yr := tm.Addr(tx.Load(y + rbRight))
	tx.Store(x+rbLeft, uint64(yr))
	if yr != tm.NilAddr {
		tx.Store(yr+rbParent, uint64(x))
	}
	xp := tm.Addr(tx.Load(x + rbParent))
	tx.Store(y+rbParent, uint64(xp))
	switch {
	case xp == tm.NilAddr:
		tx.Store(s.root, uint64(y))
	case x == tm.Addr(tx.Load(xp+rbRight)):
		tx.Store(xp+rbRight, uint64(y))
	default:
		tx.Store(xp+rbLeft, uint64(y))
	}
	tx.Store(y+rbRight, uint64(x))
	tx.Store(x+rbParent, uint64(y))
}

// Delete removes key k on behalf of worker slot self, reporting whether it
// was present.
func (s *RBSet) Delete(tx tm.Txn, self int, k uint64) bool {
	z := tm.Addr(tx.Load(s.root))
	for z != tm.NilAddr {
		zk := tx.Load(z + rbKey)
		if k == zk {
			break
		}
		if k < zk {
			z = tm.Addr(tx.Load(z + rbLeft))
		} else {
			z = tm.Addr(tx.Load(z + rbRight))
		}
	}
	if z == tm.NilAddr {
		return false
	}
	// CLRS delete: y is the node actually unlinked.
	y := z
	yColor := tx.Load(y + rbColor)
	var x, xParent tm.Addr
	if tm.Addr(tx.Load(z+rbLeft)) == tm.NilAddr {
		x = tm.Addr(tx.Load(z + rbRight))
		xParent = tm.Addr(tx.Load(z + rbParent))
		s.transplant(tx, z, x)
	} else if tm.Addr(tx.Load(z+rbRight)) == tm.NilAddr {
		x = tm.Addr(tx.Load(z + rbLeft))
		xParent = tm.Addr(tx.Load(z + rbParent))
		s.transplant(tx, z, x)
	} else {
		y = s.minimum(tx, tm.Addr(tx.Load(z+rbRight)))
		yColor = tx.Load(y + rbColor)
		x = tm.Addr(tx.Load(y + rbRight))
		if tm.Addr(tx.Load(y+rbParent)) == z {
			xParent = y
			if x != tm.NilAddr {
				tx.Store(x+rbParent, uint64(y))
			}
		} else {
			xParent = tm.Addr(tx.Load(y + rbParent))
			s.transplant(tx, y, x)
			zr := tm.Addr(tx.Load(z + rbRight))
			tx.Store(y+rbRight, uint64(zr))
			tx.Store(zr+rbParent, uint64(y))
		}
		s.transplant(tx, z, y)
		zl := tm.Addr(tx.Load(z + rbLeft))
		tx.Store(y+rbLeft, uint64(zl))
		tx.Store(zl+rbParent, uint64(y))
		tx.Store(y+rbColor, tx.Load(z+rbColor))
	}
	if yColor == rbBlack {
		s.deleteFixup(tx, x, xParent)
	}
	s.pool.Put(tx, self, z)
	return true
}

// transplant replaces subtree u with subtree v in u's parent.
func (s *RBSet) transplant(tx tm.Txn, u, v tm.Addr) {
	up := tm.Addr(tx.Load(u + rbParent))
	switch {
	case up == tm.NilAddr:
		tx.Store(s.root, uint64(v))
	case u == tm.Addr(tx.Load(up+rbLeft)):
		tx.Store(up+rbLeft, uint64(v))
	default:
		tx.Store(up+rbRight, uint64(v))
	}
	if v != tm.NilAddr {
		tx.Store(v+rbParent, uint64(up))
	}
}

func (s *RBSet) minimum(tx tm.Txn, n tm.Addr) tm.Addr {
	for {
		l := tm.Addr(tx.Load(n + rbLeft))
		if l == tm.NilAddr {
			return n
		}
		n = l
	}
}

// color reads a node color treating nil as black.
func (s *RBSet) color(tx tm.Txn, n tm.Addr) uint64 {
	if n == tm.NilAddr {
		return rbBlack
	}
	return tx.Load(n + rbColor)
}

func (s *RBSet) setColor(tx tm.Txn, n tm.Addr, c uint64) {
	if n != tm.NilAddr {
		tx.Store(n+rbColor, c)
	}
}

// deleteFixup restores the red-black properties after removing a black
// node. x may be nil; xParent tracks its parent explicitly (no sentinel
// node in the heap representation).
func (s *RBSet) deleteFixup(tx tm.Txn, x, xParent tm.Addr) {
	for x != tm.Addr(tx.Load(s.root)) && s.color(tx, x) == rbBlack {
		if xParent == tm.NilAddr {
			break
		}
		if x == tm.Addr(tx.Load(xParent+rbLeft)) {
			w := tm.Addr(tx.Load(xParent + rbRight))
			if s.color(tx, w) == rbRed {
				s.setColor(tx, w, rbBlack)
				s.setColor(tx, xParent, rbRed)
				s.rotateLeft(tx, xParent)
				w = tm.Addr(tx.Load(xParent + rbRight))
			}
			if w == tm.NilAddr {
				x = xParent
				xParent = tm.Addr(tx.Load(x + rbParent))
				continue
			}
			wl := tm.Addr(tx.Load(w + rbLeft))
			wr := tm.Addr(tx.Load(w + rbRight))
			if s.color(tx, wl) == rbBlack && s.color(tx, wr) == rbBlack {
				s.setColor(tx, w, rbRed)
				x = xParent
				xParent = tm.Addr(tx.Load(x + rbParent))
				continue
			}
			if s.color(tx, wr) == rbBlack {
				s.setColor(tx, wl, rbBlack)
				s.setColor(tx, w, rbRed)
				s.rotateRight(tx, w)
				w = tm.Addr(tx.Load(xParent + rbRight))
			}
			s.setColor(tx, w, s.color(tx, xParent))
			s.setColor(tx, xParent, rbBlack)
			s.setColor(tx, tm.Addr(tx.Load(w+rbRight)), rbBlack)
			s.rotateLeft(tx, xParent)
			x = tm.Addr(tx.Load(s.root))
			break
		}
		// Mirror case.
		w := tm.Addr(tx.Load(xParent + rbLeft))
		if s.color(tx, w) == rbRed {
			s.setColor(tx, w, rbBlack)
			s.setColor(tx, xParent, rbRed)
			s.rotateRight(tx, xParent)
			w = tm.Addr(tx.Load(xParent + rbLeft))
		}
		if w == tm.NilAddr {
			x = xParent
			xParent = tm.Addr(tx.Load(x + rbParent))
			continue
		}
		wl := tm.Addr(tx.Load(w + rbLeft))
		wr := tm.Addr(tx.Load(w + rbRight))
		if s.color(tx, wr) == rbBlack && s.color(tx, wl) == rbBlack {
			s.setColor(tx, w, rbRed)
			x = xParent
			xParent = tm.Addr(tx.Load(x + rbParent))
			continue
		}
		if s.color(tx, wl) == rbBlack {
			s.setColor(tx, wr, rbBlack)
			s.setColor(tx, w, rbRed)
			s.rotateLeft(tx, w)
			w = tm.Addr(tx.Load(xParent + rbLeft))
		}
		s.setColor(tx, w, s.color(tx, xParent))
		s.setColor(tx, xParent, rbBlack)
		s.setColor(tx, tm.Addr(tx.Load(w+rbLeft)), rbBlack)
		s.rotateRight(tx, xParent)
		x = tm.Addr(tx.Load(s.root))
		break
	}
	s.setColor(tx, x, rbBlack)
}

// AscendRange visits every key in [lo, hi] in ascending order, calling
// visit for each; visiting stops early when visit returns false. The whole
// scan runs inside the caller's transaction, so its read set grows with
// the span — the "scan" service phase uses exactly that to shift the
// workload's TM-capacity profile.
func (s *RBSet) AscendRange(tx tm.Txn, lo, hi uint64, visit func(k, v uint64) bool) {
	s.ascendFrom(tx, tm.Addr(tx.Load(s.root)), lo, hi, visit)
}

func (s *RBSet) ascendFrom(tx tm.Txn, n tm.Addr, lo, hi uint64, visit func(k, v uint64) bool) bool {
	if n == tm.NilAddr {
		return true
	}
	k := tx.Load(n + rbKey)
	if k > lo {
		if !s.ascendFrom(tx, tm.Addr(tx.Load(n+rbLeft)), lo, hi, visit) {
			return false
		}
	}
	if k >= lo && k <= hi {
		if !visit(k, tx.Load(n+rbVal)) {
			return false
		}
	}
	if k < hi {
		return s.ascendFrom(tx, tm.Addr(tx.Load(n+rbRight)), lo, hi, visit)
	}
	return true
}
