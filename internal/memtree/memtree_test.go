package memtree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func intTree() *Tree[int] {
	return New[int](func(a, b int) bool { return a < b })
}

// get returns the item equal to key, if present.
func get[T any](tr *Tree[T], key T) (item T, ok bool) {
	tr.Scan(key, func(x T) bool {
		item, ok = x, !tr.less(key, x)
		return false
	})
	return item, ok
}

// checkInvariants verifies the tree's shape: every leaf is non-empty, holds
// at most leafCap items in a slice of capacity leafCap, the items ascend
// within and across leaves, and Len counts them.
func (t *Tree[T]) checkInvariants() error {
	n := 0
	for i, l := range t.leaves {
		if len(l) == 0 || len(l) > leafCap || cap(l) != leafCap {
			return fmt.Errorf("memtree: leaf %d holds %d items in a slice of capacity %d", i, len(l), cap(l))
		}
		for j := 1; j < len(l); j++ {
			if !t.less(l[j-1], l[j]) {
				return fmt.Errorf("memtree: leaf %d: items %d and %d out of order", i, j-1, j)
			}
		}
		if i > 0 && !t.less(t.leaves[i-1][len(t.leaves[i-1])-1], l[0]) {
			return fmt.Errorf("memtree: leaves %d and %d out of order", i-1, i)
		}
		n += len(l)
	}
	if n != t.size {
		return fmt.Errorf("memtree: Len %d, leaves hold %d items", t.size, n)
	}
	return nil
}

func TestInsertGetDelete(t *testing.T) {
	tr := intTree()
	if _, ok := get(tr, 1); ok {
		t.Fatal("empty tree contains 1")
	}
	for i := 0; i < 100; i++ {
		if !tr.Insert(i) {
			t.Fatalf("Insert(%d) reported replace on fresh key", i)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	if tr.Insert(50) {
		t.Fatal("Insert(50) reported fresh on existing key")
	}
	if tr.Len() != 100 {
		t.Fatalf("replace changed Len to %d", tr.Len())
	}
	for i := 0; i < 100; i++ {
		if v, ok := get(tr, i); !ok || v != i {
			t.Fatalf("get(%d) = %d, %v", i, v, ok)
		}
	}
	for i := 0; i < 100; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Delete(2) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 50 {
		t.Fatalf("Len after deletes = %d, want 50", tr.Len())
	}
	for i := 0; i < 100; i++ {
		_, ok := get(tr, i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("get(%d) present=%v, want %v", i, ok, want)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanFrom(t *testing.T) {
	tr := intTree()
	for i := 0; i < 20; i += 2 {
		tr.Insert(i)
	}
	var got []int
	tr.Scan(7, func(v int) bool {
		got = append(got, v)
		return true
	})
	want := []int{8, 10, 12, 14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("Scan(7) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan(7) = %v, want %v", got, want)
		}
	}
	// Early termination.
	got = got[:0]
	tr.Scan(0, func(v int) bool {
		got = append(got, v)
		return len(got) < 3
	})
	if len(got) != 3 || got[2] != 4 {
		t.Fatalf("early-stop Scan = %v", got)
	}
}

// items returns the tree's items in IterAll's order.
func items[T any](tr *Tree[T]) []T {
	var out []T
	it := tr.IterAll()
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		out = append(out, v)
	}
	return out
}

// TestIterAllMatchesItems: IterAll yields the items inserted, each once, in
// ascending order.
func TestIterAllMatchesItems(t *testing.T) {
	tr := intTree()
	rng := rand.New(rand.NewSource(7))
	set := map[int]bool{}
	for i := 0; i < 500; i++ {
		k := rng.Intn(200)
		tr.Insert(k)
		set[k] = true
	}
	want := make([]int, 0, len(set))
	for k := range set {
		want = append(want, k)
	}
	sort.Ints(want)
	if got := items(tr); !slices.Equal(got, want) {
		t.Fatalf("IterAll yielded %v, want %v", got, want)
	}
}

// kv is an item ordered by k alone, so an insert of an equal item with
// another v shows whether it replaced the one held.
type kv struct{ k, v int }

func kvLess(a, b kv) bool { return a.k < b.k }

func kvCmp(a, b kv) int { return a.k - b.k }

// TestAgainstReferenceModel drives random inserts, deletes, early-stopping
// scans and full iterations against a sorted slice, checking the tree's
// invariants and Len after every step. Phases of growth alternate with
// phases of shrinking, and appends past the largest key are mixed in, so
// the run replaces items, splits full leaves at their middle and at their
// end, and empties leaves; it fails unless each of those happened often.
func TestAgainstReferenceModel(t *testing.T) {
	tr := New(kvLess)
	var model []kv
	rng := rand.New(rand.NewSource(46))
	var replaced, midSplits, endSplits, emptied, lastDel int
	for step := 0; step < 40_000; step++ {
		growing := step/2000%2 == 0
		leaves := len(tr.leaves)
		switch op := rng.Intn(100); {
		case op < 50 && growing || op < 25:
			it := kv{rng.Intn(8192), step}
			if op%5 == 0 && len(model) > 0 {
				it.k = model[len(model)-1].k + 1 + rng.Intn(3)
			}
			if leaves > 0 {
				if i, j, found := tr.find(it); !found && len(tr.leaves[i]) == leafCap {
					if j == leafCap {
						endSplits++
					} else {
						midSplits++
					}
				}
			}
			j, found := slices.BinarySearchFunc(model, it, kvCmp)
			if fresh := tr.Insert(it); fresh == found {
				t.Fatalf("step %d: Insert(%v) reported fresh=%v, model holds it: %v", step, it, fresh, found)
			}
			if found {
				model[j] = it
				replaced++
			} else {
				model = slices.Insert(model, j, it)
			}
		case op < 80:
			k := rng.Intn(8192)
			if op%2 == 0 && len(model) > 0 {
				// The item after the last one deleted: runs of these
				// empty leaves.
				k = model[lastDel%len(model)].k
			}
			j, found := slices.BinarySearchFunc(model, kv{k: k}, kvCmp)
			if tr.Delete(kv{k: k}) != found {
				t.Fatalf("step %d: Delete(%d) disagrees with the model (holds it: %v)", step, k, found)
			}
			if found {
				model = slices.Delete(model, j, j+1)
				lastDel = j
			}
			if len(tr.leaves) < leaves {
				emptied++
			}
		case op < 95:
			from, limit := rng.Intn(8300), rng.Intn(150)
			var got []kv
			tr.Scan(kv{k: from}, func(x kv) bool {
				got = append(got, x)
				return len(got) < limit
			})
			j, _ := slices.BinarySearchFunc(model, kv{k: from}, kvCmp)
			want := model[j:min(len(model), j+max(limit, 1))]
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Scan(%d) stopping at %d yielded %v, want %v", step, from, limit, got, want)
			}
		default:
			if got := items(tr); !slices.Equal(got, model) {
				t.Fatalf("step %d: IterAll yielded %d items, want the model's %d", step, len(got), len(model))
			}
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if tr.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model holds %d", step, tr.Len(), len(model))
		}
	}
	t.Logf("%d replaces, %d splits at a leaf's middle, %d at its end, %d leaves emptied",
		replaced, midSplits, endSplits, emptied)
	if replaced < 50 || midSplits < 50 || endSplits < 10 || emptied < 10 {
		t.Fatal("the run did not cross enough replaces and leaf changes")
	}
}

// TestConcurrentReaders: goroutines Scan and IterAll one tree that nobody
// writes, as queries and a checkpoint's flush read a frozen generation, and
// each sees every item. Run under -race it checks that neither writes to
// the tree.
func TestConcurrentReaders(t *testing.T) {
	tr := intTree()
	const n = 10_000
	for _, k := range rand.New(rand.NewSource(3)).Perm(n) {
		tr.Insert(2 * k)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 200 {
				from := rng.Intn(2 * n)
				first := (from + 1) / 2 // the index of the first item >= from
				want := first
				tr.Scan(from, func(v int) bool {
					if v != 2*want {
						errs[g] = fmt.Errorf("Scan(%d) yielded %d, want %d", from, v, 2*want)
						return false
					}
					want++
					return want-first < 100
				})
				if errs[g] != nil {
					return
				}
			}
			if got := items(tr); len(got) != n || got[0] != 0 || got[n-1] != 2*(n-1) {
				errs[g] = fmt.Errorf("IterAll yielded %d items", len(got))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSortedProperty(t *testing.T) {
	// Property: IterAll is always sorted and duplicate-free for any input.
	f := func(keys []int16) bool {
		tr := intTree()
		for _, k := range keys {
			tr.Insert(int(k))
		}
		got := items(tr)
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				return false
			}
		}
		return tr.checkInvariants() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeleteAllProperty(t *testing.T) {
	// Property: inserting then deleting every key leaves an empty, valid tree.
	f := func(keys []uint8) bool {
		tr := intTree()
		for _, k := range keys {
			tr.Insert(int(k))
		}
		for _, k := range keys {
			tr.Delete(int(k))
		}
		return tr.Len() == 0 && tr.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertDeleteChurn(b *testing.B) {
	tr := intTree()
	for i := 0; i < 32000; i++ {
		tr.Insert(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Delete(i % 32000)
		tr.Insert(i % 32000)
	}
}

// rec is a write-store record's shape: 56 bytes ordered one big-endian word
// at a time.
type rec [56]byte

func lessWords(a, b rec) bool {
	for i := 0; i < len(a); i += 8 {
		if x, y := binary.BigEndian.Uint64(a[i:]), binary.BigEndian.Uint64(b[i:]); x != y {
			return x < y
		}
	}
	return false
}

// BenchmarkInsertRecords fills a new tree with n 56-byte records per
// iteration, their keys random or ascending, and reports the time and the
// allocations per record.
func BenchmarkInsertRecords(b *testing.B) {
	for _, c := range []struct {
		name      string
		n         int
		ascending bool
	}{
		{"random-16k", 16 << 10, false},
		{"random-100k", 100_000, false},
		{"random-1M", 1_000_000, false},
		{"ascending-100k", 100_000, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			recs := make([]rec, c.n)
			rng := rand.New(rand.NewSource(1))
			for i := range recs {
				k := uint64(i)
				if !c.ascending {
					k = rng.Uint64()
				}
				binary.BigEndian.PutUint64(recs[i][:], k)
				binary.BigEndian.PutUint64(recs[i][8:], k*7)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				tr := New(lessWords)
				for _, r := range recs {
					tr.Insert(r)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/record")
		})
	}
}
