package core_test

import (
	"slices"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// TestHashPartitioningEquivalence runs the same workload under range and
// hash partitioning and holds both to the model, including across
// compaction and relocation.
func TestHashPartitioningEquivalence(t *testing.T) {
	const blocks = 1000
	build := func(hash bool) (*core.Engine, *core.MemCatalog) {
		cat := core.NewMemCatalog()
		opts := core.Options{VFS: storage.NewMemFS(), Catalog: cat, Partitions: 4}
		if hash {
			opts.HashPartitioning = true
		} else {
			opts.PartitionSpan = blocks / 4
		}
		eng, err := core.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng, cat
	}
	a, catA := build(false)
	b, catB := build(true)
	m := newModel()
	each := func(fn func(*core.Engine, *core.MemCatalog)) {
		fn(a, catA)
		fn(b, catB)
	}
	for _, batch := range cpBatches(hammerStreams(1, 500, blocks, 20)[0]) {
		cp := batch[0].cp
		for _, o := range batch {
			m.apply(o)
			each(func(eng *core.Engine, _ *core.MemCatalog) { o.applyTo(eng) })
		}
		if cp%5 == 0 {
			m.snapshot(0, cp)
			each(func(_ *core.Engine, cat *core.MemCatalog) {
				if err := cat.CreateSnapshot(0, cp); err != nil {
					t.Fatal(err)
				}
			})
		}
		each(func(eng *core.Engine, _ *core.MemCatalog) { fCheckpoint(t, eng, cp) })
	}
	check := func() {
		t.Helper()
		each(func(eng *core.Engine, _ *core.MemCatalog) { m.check(t, eng, blocks) })
	}
	check()
	each(func(eng *core.Engine, _ *core.MemCatalog) {
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
	})
	check()

	// Relocation exercises the deletion vectors under both schemes.
	moved := uint64(0)
	for !slices.ContainsFunc(m.owners(moved), func(o core.Owner) bool { return o.Live }) {
		moved++
	}
	m.relocate(moved, 5000)
	each(func(eng *core.Engine, _ *core.MemCatalog) {
		if err := eng.RelocateBlock(moved, 5000); err != nil {
			t.Fatal(err)
		}
		fCheckpoint(t, eng, 21)
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
	})
	check()
}

// TestHashPartitioningSpreadsLoad checks the scheme's motivation: block
// ranges that are contiguous (and so would all land in one range
// partition) spread across all hash partitions.
func TestHashPartitioningSpreadsLoad(t *testing.T) {
	eng, err := core.Open(core.Options{
		VFS: storage.NewMemFS(), Catalog: core.NewMemCatalog(),
		Partitions: 4, HashPartitioning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2000 contiguous blocks — a freshly written file region.
	for i := uint64(0); i < 2000; i++ {
		eng.AddRef(fref(i, 1, i, 0), 1)
	}
	fCheckpoint(t, eng, 1)
	counts := make([]uint64, 4)
	for p := 0; p < 4; p++ {
		for _, r := range eng.DB().Table(core.TableFrom).Runs(p) {
			counts[p] += r.Records()
		}
	}
	var total uint64
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d got no records", p)
		}
		if c < 300 || c > 700 {
			t.Fatalf("partition %d unbalanced: %d of 2000", p, c)
		}
		total += c
	}
	if total != 2000 {
		t.Fatalf("total records %d, want 2000", total)
	}
}

// TestHashPartitioningValidation ensures hash mode doesn't require a span.
func TestHashPartitioningValidation(t *testing.T) {
	fs := storage.NewMemFS()
	if _, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Partitions: 3}); err == nil {
		t.Fatal("range partitions without span accepted")
	}
	if _, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Partitions: 3, HashPartitioning: true}); err != nil {
		t.Fatalf("hash partitions rejected: %v", err)
	}
}
