package lsm

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"slices"

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
	last []byte // the record emitted last
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
	if err := m.add(iters...); err != nil {
		return nil, err
	}
	return m, nil
}

// add reads the first record of each input, in order, and merges the inputs
// that have one. Every record an input yields must sort after the records
// already emitted.
func (m *mergeIter) add(iters ...RecIter) error {
	for _, it := range iters {
		rec, ok, err := it.Next()
		if err != nil {
			return err
		}
		if ok {
			m.h = append(m.h, &mergeSrc{it: it, cur: append([]byte(nil), rec...)})
		}
	}
	heap.Init(&m.h)
	return nil
}

// peek returns the record Next would emit, first dropping the inputs'
// copies of the record emitted last. The slice is valid until the next call.
func (m *mergeIter) peek() ([]byte, bool, error) {
	for len(m.h) > 0 {
		if top := m.h[0].cur; !bytes.Equal(top, m.last) { // records are never empty
			return top, true, nil
		}
		if err := m.drop(); err != nil {
			return nil, false, err
		}
	}
	return nil, false, nil
}

// drop removes the smallest record, reading the next one of its input.
func (m *mergeIter) drop() error {
	src := m.h[0]
	next, ok, err := src.it.Next()
	if err != nil {
		return err
	}
	if ok {
		src.cur = append(src.cur[:0], next...)
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return nil
}

func (m *mergeIter) Next() ([]byte, bool, error) {
	top, ok, err := m.peek()
	if err != nil || !ok {
		return nil, false, err
	}
	// Copy the record before dropping it: reading its input's next record
	// reuses the buffer.
	m.last = append(m.last[:0], top...)
	if err := m.drop(); err != nil {
		return nil, false, err
	}
	return m.last, true, nil
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

// RangeIter streams one table's records in the blocks [lo, last] of a view,
// merged with sorted in-memory records of those blocks, one block at a time:
// Advance opens the next block and Next yields its records in ascending
// order, each once, except those the view's deletion vector hides. A run is
// sought once, at the first block of its partition that lies in its key
// range and passes its Bloom filter, and read only as far as the merge
// needs to find where the open block ends; the range ends as a plain merge
// of its runs would, by taking its first record past last off the stream.
// Over a single block these are the probes, seeks and reads of a point
// lookup. A RangeIter reads only the run lists and vector its view pinned,
// so it needs no lock.
type RangeIter struct {
	db      *DB
	tv      *tableView
	mem     [][]byte // merged in at the first Advance
	block   uint64   // the open block; lo-1, mod 2^64, before the first
	last    uint64
	horizon uint64
	sought  []*Run // while blocks remain
	m       mergeIter
}

// Advance opens the next block of the range, lo on the first call, seeking
// at it every run of its partition that may hold it and has not been sought
// yet. Call it once per block of the range at most.
func (it *RangeIter) Advance() error {
	it.block++
	b := it.block
	var key []byte // the block's smallest record
	var iters []RecIter
	for _, r := range it.tv.runs[it.db.PartitionOf(b)] {
		if slices.Contains(it.sought, r) || r.DroppableBelow(it.horizon) || !r.MayContainBlock(b) {
			continue
		}
		if key == nil {
			key = make([]byte, it.tv.t.spec.RecordSize)
			binary.BigEndian.PutUint64(key, b)
		}
		bi, err := r.SeekGE(key)
		if err != nil {
			return err
		}
		if b < it.last {
			it.sought = append(it.sought, r)
		}
		iters = append(iters, &runIter{it: bi})
	}
	if len(it.mem) > 0 {
		iters = append(iters, NewSliceIter(it.mem))
		it.mem = nil
	}
	return it.m.add(iters...)
}

// Next returns the open block's next record, or ok=false once the block is
// done. The slice is valid until the next call.
func (it *RangeIter) Next() ([]byte, bool, error) {
	for {
		top, ok, err := it.m.peek()
		if err != nil || !ok {
			return nil, false, err
		}
		if blockOf(top) > it.block {
			if it.block == it.last {
				// The range ends where a plain merge of its runs finds its end:
				// by taking the first record past last off the stream, which
				// reads the record after it from that record's run.
				err = it.m.drop()
				it.m.h = nil
			}
			return nil, false, err
		}
		rec, _, err := it.m.Next()
		if err != nil {
			return nil, false, err
		}
		if _, dead := it.tv.dv[string(rec)]; !dead {
			return rec, true, nil
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
