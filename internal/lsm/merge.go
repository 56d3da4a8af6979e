package lsm

import (
	"bytes"
	"container/heap"
	"encoding/binary"

	"github.com/backlogfs/backlog/internal/btree"
)

// RecIter is the record-stream abstraction shared by run iterators,
// in-memory slices, and merge iterators. Returned slices are valid only
// until the next call.
type RecIter interface {
	Next() (rec []byte, ok bool, err error)
}

// sliceIter iterates an in-memory sorted record list.
type sliceIter struct {
	recs [][]byte
	i    int
}

// NewSliceIter returns a RecIter over records (which must be sorted).
func NewSliceIter(recs [][]byte) RecIter { return &sliceIter{recs: recs} }

func (s *sliceIter) Next() ([]byte, bool, error) {
	if s.i >= len(s.recs) {
		return nil, false, nil
	}
	r := s.recs[s.i]
	s.i++
	return r, true, nil
}

type runIter struct {
	it *btree.Iterator
}

func (r *runIter) Next() ([]byte, bool, error) { return r.it.Next() }

// mergeIter is a k-way merge with duplicate suppression: identical records
// appearing in multiple inputs are emitted once.
type mergeIter struct {
	h    mergeHeap
	cur  []byte // scratch copy of the record being emitted
	last []byte
	any  bool
}

type mergeSrc struct {
	it  RecIter
	cur []byte
}

type mergeHeap []*mergeSrc

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return bytes.Compare(h[i].cur, h[j].cur) < 0 }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*mergeSrc)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewMergeIter merges multiple sorted record streams into one sorted,
// duplicate-free stream.
func NewMergeIter(iters ...RecIter) (RecIter, error) {
	m := &mergeIter{}
	for _, it := range iters {
		rec, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.h = append(m.h, &mergeSrc{it: it, cur: append([]byte(nil), rec...)})
		}
	}
	heap.Init(&m.h)
	return m, nil
}

func (m *mergeIter) Next() ([]byte, bool, error) {
	for len(m.h) > 0 {
		src := m.h[0]
		// Copy the record before advancing the source: advancing reuses
		// src.cur's backing array.
		m.cur = append(m.cur[:0], src.cur...)
		next, ok, err := src.it.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			src.cur = append(src.cur[:0], next...)
			heap.Fix(&m.h, 0)
		} else {
			heap.Pop(&m.h)
		}
		if m.any && bytes.Equal(m.cur, m.last) {
			continue // duplicate across runs
		}
		m.last = append(m.last[:0], m.cur...)
		m.any = true
		return m.last, true, nil
	}
	return nil, false, nil
}

// dvFilterIter hides records present in a deletion vector. The map is a
// snapshot (a table's live vector or a view's pinned copy); it is read
// only, so the iterator is safe without locks.
type dvFilterIter struct {
	dv map[string]struct{}
	in RecIter
}

func (f *dvFilterIter) Next() ([]byte, bool, error) {
	for {
		rec, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if _, dead := f.dv[string(rec)]; !dead {
			return rec, true, nil
		}
	}
}

// blockKey returns the smallest possible record for a block: the 8-byte
// big-endian block number followed by zeros.
func blockKey(block uint64, recSize int) []byte {
	k := make([]byte, recSize)
	binary.BigEndian.PutUint64(k, block)
	return k
}

// collectBlock merges the given runs around one block and invokes visit
// for every surviving record, in ascending order, with deletion-vector
// filtering applied. Bloom filters prune runs that cannot contain the
// block. It reads only the run list and dv snapshot it is handed — a
// view's pinned ones — so it needs no lock.
func collectBlock(runs []*Run, recSize int, dv map[string]struct{}, block uint64, visit func(rec []byte) bool) error {
	var iters []RecIter
	key := blockKey(block, recSize)
	for _, r := range runs {
		if !r.MayContainBlock(block) {
			continue
		}
		it, err := r.SeekGE(key)
		if err != nil {
			return err
		}
		iters = append(iters, &runIter{it: it})
	}
	if len(iters) == 0 {
		return nil
	}
	merged, err := NewMergeIter(iters...)
	if err != nil {
		return err
	}
	for {
		rec, ok, err := merged.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if blockOf(rec) != block {
			return nil // past the block: done (records are block-ordered)
		}
		if _, dead := dv[string(rec)]; dead {
			continue
		}
		if !visit(rec) {
			return nil
		}
	}
}

// mergedIter builds the sorted, duplicate-free, deletion-vector-filtered
// stream over a run list.
func mergedIter(runs []*Run, dv map[string]struct{}) (RecIter, error) {
	var iters []RecIter
	for _, r := range runs {
		it, err := r.First()
		if err != nil {
			return nil, err
		}
		iters = append(iters, &runIter{it: it})
	}
	merged, err := NewMergeIter(iters...)
	if err != nil {
		return nil, err
	}
	return &dvFilterIter{dv: dv, in: merged}, nil
}

// Runs returns the live runs of a partition, oldest first. The slice is
// owned by the table; do not modify.
func (t *Table) Runs(partition int) []*Run { return t.runs[partition] }

// RecordSize returns the table's fixed record size.
func (t *Table) RecordSize() int { return t.spec.RecordSize }

// Name returns the table name.
func (t *Table) Name() string { return t.spec.Name }

// TotalRecords returns the number of records across all live runs
// (counting duplicates across runs once per run, before DV filtering).
func (t *Table) TotalRecords() uint64 {
	var n uint64
	for _, part := range t.runs {
		for _, r := range part {
			n += r.records
		}
	}
	return n
}
