// Package memtree provides the in-memory ordered tree used as the write
// store (WS) of each Backlog table.
//
// The paper's fsim prototype used a Berkeley DB in-memory B-tree and the
// btrfs port used Linux red/black trees; "any efficient indexing structure
// would work" (Section 5.1). This package implements a left-leaning
// red-black tree (Sedgewick's 2-3 variant) generic over the item type. The
// engine keeps one per table and shard, each a tree of fixed-width encoded
// records, and calls only what the write store needs: Insert, Delete (an
// exact-match delete is proactive pruning), Scan from a key (a query's or a
// relocation's records of a block range) and IterAll (a checkpoint's flush
// and the merge-back of a failed one).
package memtree

// Tree is an ordered set of items of type T. Two items a, b are considered
// equal when neither less(a,b) nor less(b,a); Insert replaces equal items.
// The zero value is not usable; construct with New.
type Tree[T any] struct {
	less func(a, b T) bool
	root *node[T]
	size int
}

type node[T any] struct {
	item        T
	left, right *node[T]
	red         bool
}

// New returns an empty tree ordered by less.
func New[T any](less func(a, b T) bool) *Tree[T] {
	return &Tree[T]{less: less}
}

// Len returns the number of items in the tree.
func (t *Tree[T]) Len() int { return t.size }

func isRed[T any](n *node[T]) bool { return n != nil && n.red }

func rotateLeft[T any](h *node[T]) *node[T] {
	x := h.right
	h.right = x.left
	x.left = h
	x.red = h.red
	h.red = true
	return x
}

func rotateRight[T any](h *node[T]) *node[T] {
	x := h.left
	h.left = x.right
	x.right = h
	x.red = h.red
	h.red = true
	return x
}

func flipColors[T any](h *node[T]) {
	h.red = !h.red
	h.left.red = !h.left.red
	h.right.red = !h.right.red
}

func fixUp[T any](h *node[T]) *node[T] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

// Insert adds item to the tree, replacing any equal item. It reports
// whether the item was newly inserted (false means replaced).
func (t *Tree[T]) Insert(item T) bool {
	var inserted bool
	t.root, inserted = t.insert(t.root, item)
	t.root.red = false
	if inserted {
		t.size++
	}
	return inserted
}

func (t *Tree[T]) insert(h *node[T], item T) (*node[T], bool) {
	if h == nil {
		return &node[T]{item: item, red: true}, true
	}
	var inserted bool
	switch {
	case t.less(item, h.item):
		h.left, inserted = t.insert(h.left, item)
	case t.less(h.item, item):
		h.right, inserted = t.insert(h.right, item)
	default:
		h.item = item
	}
	return fixUp(h), inserted
}

// Get returns the item equal to key, if present.
func (t *Tree[T]) Get(key T) (T, bool) {
	n := t.root
	for n != nil {
		switch {
		case t.less(key, n.item):
			n = n.left
		case t.less(n.item, key):
			n = n.right
		default:
			return n.item, true
		}
	}
	var zero T
	return zero, false
}

func moveRedLeft[T any](h *node[T]) *node[T] {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight[T any](h *node[T]) *node[T] {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func deleteMin[T any](h *node[T]) *node[T] {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = deleteMin(h.left)
	return fixUp(h)
}

func minNode[T any](h *node[T]) *node[T] {
	for h.left != nil {
		h = h.left
	}
	return h
}

// Delete removes the item equal to key and reports whether it was present.
func (t *Tree[T]) Delete(key T) bool {
	if _, ok := t.Get(key); !ok {
		return false
	}
	t.root = t.delete(t.root, key)
	if t.root != nil {
		t.root.red = false
	}
	t.size--
	return true
}

func (t *Tree[T]) delete(h *node[T], key T) *node[T] {
	if t.less(key, h.item) {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = t.delete(h.left, key)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if !t.less(h.item, key) && h.right == nil {
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if !t.less(h.item, key) && !t.less(key, h.item) {
			m := minNode(h.right)
			h.item = m.item
			h.right = deleteMin(h.right)
		} else {
			h.right = t.delete(h.right, key)
		}
	}
	return fixUp(h)
}

// Scan calls fn for each item >= from, in ascending order, until fn returns
// false or the items are exhausted.
func (t *Tree[T]) Scan(from T, fn func(item T) bool) {
	t.scan(t.root, from, fn)
}

func (t *Tree[T]) scan(n *node[T], from T, fn func(item T) bool) bool {
	if n == nil {
		return true
	}
	if t.less(n.item, from) {
		return t.scan(n.right, from, fn)
	}
	if !t.scan(n.left, from, fn) {
		return false
	}
	if !fn(n.item) {
		return false
	}
	return t.scan(n.right, from, fn)
}

// Iter is a resumable ascending iterator. It is invalidated by tree
// mutation.
type Iter[T any] struct {
	stack []*node[T]
}

// IterAll returns an iterator over the whole tree.
func (t *Tree[T]) IterAll() *Iter[T] {
	it := &Iter[T]{}
	n := t.root
	for n != nil {
		it.stack = append(it.stack, n)
		n = n.left
	}
	return it
}

// Next returns the next item, if any.
func (it *Iter[T]) Next() (T, bool) {
	if len(it.stack) == 0 {
		var zero T
		return zero, false
	}
	n := it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
	item := n.item
	child := n.right
	for child != nil {
		it.stack = append(it.stack, child)
		child = child.left
	}
	return item, true
}

// checkInvariants verifies red-black invariants; used by tests.
func (t *Tree[T]) checkInvariants() error {
	if isRed(t.root) {
		return errRedRoot
	}
	_, err := check(t.root)
	return err
}

var (
	errRedRoot   = treeError("red root")
	errRedRight  = treeError("right-leaning red link")
	errDoubleRed = treeError("two consecutive red links")
	errBlackPath = treeError("unequal black height")
)

type treeError string

func (e treeError) Error() string { return "memtree: " + string(e) }

func check[T any](n *node[T]) (blackHeight int, err error) {
	if n == nil {
		return 1, nil
	}
	if isRed(n.right) {
		return 0, errRedRight
	}
	if isRed(n) && (isRed(n.left) || isRed(n.right)) {
		return 0, errDoubleRed
	}
	lh, err := check(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := check(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackPath
	}
	if !isRed(n) {
		lh++
	}
	return lh, nil
}
