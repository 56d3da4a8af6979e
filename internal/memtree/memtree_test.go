package memtree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func intTree() *Tree[int] {
	return New[int](func(a, b int) bool { return a < b })
}

func TestInsertGetDelete(t *testing.T) {
	tr := intTree()
	if _, ok := tr.Get(1); ok {
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
		if v, ok := tr.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
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
		_, ok := tr.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
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
func items(tr *Tree[int]) []int {
	var out []int
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

// TestAgainstReferenceModel drives a random op sequence against both the
// tree and a map+sort reference, checking full equivalence and red-black
// invariants along the way.
func TestAgainstReferenceModel(t *testing.T) {
	tr := intTree()
	ref := map[int]bool{}
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 20000; step++ {
		k := rng.Intn(500)
		if rng.Intn(2) == 0 {
			ins := tr.Insert(k)
			if ins == ref[k] {
				t.Fatalf("step %d: Insert(%d) fresh=%v, ref has=%v", step, k, ins, ref[k])
			}
			ref[k] = true
		} else {
			del := tr.Delete(k)
			if del != ref[k] {
				t.Fatalf("step %d: Delete(%d)=%v, ref has=%v", step, k, del, ref[k])
			}
			delete(ref, k)
		}
		if step%1000 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tr.Len() != len(ref) {
				t.Fatalf("step %d: Len=%d ref=%d", step, tr.Len(), len(ref))
			}
		}
	}
	want := make([]int, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Ints(want)
	got := items(tr)
	if len(got) != len(want) {
		t.Fatalf("final sizes: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: got %d want %d", i, got[i], want[i])
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
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
