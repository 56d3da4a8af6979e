// Package memtree provides the in-memory ordered set used as the write
// store (WS) of each Backlog table.
//
// The paper's fsim prototype used a Berkeley DB in-memory B-tree and the
// btrfs port used Linux red/black trees; "any efficient indexing structure
// would work" (Section 5.1). A Tree here is a sorted list of leaves: each
// leaf is a sorted slice of at most leafCap items held by value, and the
// tree's directory lists the leaves in order. Insert and Delete
// binary-search the directory for the leaf, then the leaf for the item,
// and move the items after it in place. A full leaf splits in half, and a
// leaf that empties is dropped.
//
// Nothing ever rebalances or merges leaves, because of what the write store
// asks of a tree: a generation takes one consistency point's updates, and
// the next checkpoint flushes it and drops it whole. Its only deletes are
// proactive pruning (an exact-match delete of a record added in the same
// consistency point) and relocation, so its leaves never thin out for long.
//
// The engine keeps one tree per table and shard, each a tree of
// fixed-width encoded records, and calls Insert, Delete, Scan from a key (a
// query's or a relocation's records of a block range) and IterAll (a
// checkpoint's flush and the merge-back of a failed one). Scan and IterAll
// only read the tree, so any number of them may run at once on a tree that
// nobody writes.
package memtree

import (
	"slices"
	"sort"
)

// leafCap is the most items a leaf holds.
const leafCap = 64

// Tree is an ordered set of items of type T. Two items a, b are considered
// equal when neither less(a,b) nor less(b,a); Insert replaces equal items.
// The zero value is not usable; construct with New.
type Tree[T any] struct {
	less   func(a, b T) bool
	leaves [][]T // each non-empty, sorted, with capacity leafCap
	size   int
}

// New returns an empty tree ordered by less.
func New[T any](less func(a, b T) bool) *Tree[T] {
	return &Tree[T]{less: less}
}

// Len returns the number of items in the tree.
func (t *Tree[T]) Len() int { return t.size }

// find returns the leaf that holds item or would take it (the last leaf
// whose first item is not above it, else the first), the index of the
// first item of that leaf not below item, and whether that item equals it.
func (t *Tree[T]) find(item T) (leaf, j int, found bool) {
	if len(t.leaves) == 0 {
		return 0, 0, false
	}
	leaf = max(sort.Search(len(t.leaves), func(m int) bool { return t.less(item, t.leaves[m][0]) })-1, 0)
	l := t.leaves[leaf]
	j = sort.Search(len(l), func(m int) bool { return !t.less(l[m], item) })
	return leaf, j, j < len(l) && !t.less(item, l[j])
}

// newLeaf returns a leaf holding items.
func newLeaf[T any](items ...T) []T {
	return append(make([]T, 0, leafCap), items...)
}

// Insert adds item to the tree, replacing any equal item. It reports
// whether the item was newly inserted (false means replaced).
func (t *Tree[T]) Insert(item T) bool {
	i, j, found := t.find(item)
	if found {
		t.leaves[i][j] = item
		return false
	}
	t.size++
	switch {
	case len(t.leaves) == 0:
		t.leaves = append(t.leaves, newLeaf(item))
	case len(t.leaves[i]) < leafCap:
		t.leaves[i] = slices.Insert(t.leaves[i], j, item)
	default:
		const half = leafCap / 2
		l, right := t.leaves[i][:half], newLeaf(t.leaves[i][half:]...)
		clear(t.leaves[i][half:])
		if j <= half {
			l = slices.Insert(l, j, item)
		} else {
			right = slices.Insert(right, j-half, item)
		}
		t.leaves[i] = l
		t.leaves = slices.Insert(t.leaves, i+1, right)
	}
	return true
}

// Delete removes the item equal to key and reports whether it was present.
func (t *Tree[T]) Delete(key T) bool {
	i, j, found := t.find(key)
	if !found {
		return false
	}
	t.size--
	if len(t.leaves[i]) == 1 {
		t.leaves = slices.Delete(t.leaves, i, i+1)
	} else {
		t.leaves[i] = slices.Delete(t.leaves[i], j, j+1)
	}
	return true
}

// Scan calls fn for each item >= from, in ascending order, until fn returns
// false or the items are exhausted.
func (t *Tree[T]) Scan(from T, fn func(item T) bool) {
	i, j, _ := t.find(from)
	for _, l := range t.leaves[i:] {
		for _, item := range l[j:] {
			if !fn(item) {
				return
			}
		}
		j = 0
	}
}

// Iter is a resumable ascending iterator. It is invalidated by tree
// mutation.
type Iter[T any] struct {
	leaves [][]T // the leaves not yet finished
	j      int   // the next item of leaves[0]
}

// IterAll returns an iterator over the whole tree.
func (t *Tree[T]) IterAll() *Iter[T] {
	return &Iter[T]{leaves: t.leaves}
}

// Next returns the next item, if any.
func (it *Iter[T]) Next() (T, bool) {
	for len(it.leaves) > 0 {
		if l := it.leaves[0]; it.j < len(l) {
			it.j++
			return l[it.j-1], true
		}
		it.leaves, it.j = it.leaves[1:], 0
	}
	var zero T
	return zero, false
}
