package core_test

import (
	"slices"
	"strings"
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

// TestQueryRangeReadsNoMoreThanPointQueries holds the one read path to its
// I/O promise under range and hash partitioning: on a store of several
// unmerged checkpoints, built by this process so that every run's Bloom
// filter is in memory, QueryRange over a span crossing partitions answers
// each block as Query does and reads no more query bytes from the device,
// each starting from an empty page cache.
func TestQueryRangeReadsNoMoreThanPointQueries(t *testing.T) {
	const blocks, lo, n = 2000, 300, 400
	for _, hash := range []bool{false, true} {
		t.Run(map[bool]string{false: "range", true: "hash"}[hash], func(t *testing.T) {
			opts := core.Options{VFS: storage.NewMemFS(), Catalog: core.NewMemCatalog(), Partitions: 4}
			if hash {
				opts.HashPartitioning = true
			} else {
				opts.PartitionSpan = blocks / 4
			}
			eng, err := core.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, batch := range cpBatches(hammerStreams(1, 4000, blocks, 6)[0]) {
				for _, o := range batch {
					o.applyTo(eng)
				}
				fCheckpoint(t, eng, batch[0].cp)
			}
			queryBytes := func() uint64 { return eng.IOReport().Sources[storage.SrcQuery].ReadBytes }

			eng.ClearCaches()
			start := queryBytes()
			ranged := map[uint64][]core.Owner{}
			if err := eng.QueryRange(lo, n, func(b uint64, owners []core.Owner) bool {
				ranged[b] = owners
				return true
			}); err != nil {
				t.Fatal(err)
			}
			rangeBytes := queryBytes() - start
			if len(ranged) != n {
				t.Fatalf("QueryRange visited %d of %d blocks", len(ranged), n)
			}

			eng.ClearCaches()
			start = queryBytes()
			for b := uint64(lo); b < lo+n; b++ {
				got, err := eng.Query(b)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(got, ranged[b], sameOwner) {
					t.Fatalf("block %d: Query answers\n  %+v\nQueryRange\n  %+v", b, got, ranged[b])
				}
			}
			pointBytes := queryBytes() - start
			if rangeBytes == 0 || rangeBytes > pointBytes {
				t.Fatalf("QueryRange read %d B, %d Query calls %d B", rangeBytes, n, pointBytes)
			}
			t.Logf("QueryRange read %d B, %d Query calls %d B", rangeBytes, n, pointBytes)
		})
	}
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

// TestOpenRefusesPartitionLayoutMismatch reopens a store under a
// partitioning that contradicts the one its runs were written with. Open
// must refuse it, naming the run, before it touches a file — a store that
// opened would route queries to partitions that do not hold the blocks,
// and answer them with nothing — and the right partitioning must still
// open and answer.
func TestOpenRefusesPartitionLayoutMismatch(t *testing.T) {
	const blocks = 200
	ranged := core.Options{Partitions: 2, PartitionSpan: 100}
	hashed := core.Options{Partitions: 2, HashPartitioning: true}
	cases := []struct {
		name           string
		written, wrong core.Options
	}{
		{"span", ranged, core.Options{Partitions: 2, PartitionSpan: 1000}},
		{"range to hash", ranged, hashed},
		{"hash to range", hashed, ranged},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := storage.NewMemFS()
			open := func(opts core.Options) (*core.Engine, error) {
				opts.VFS, opts.Catalog = fs, core.NewMemCatalog()
				return core.Open(opts)
			}
			eng, err := open(tc.written)
			if err != nil {
				t.Fatal(err)
			}
			for b := uint64(0); b < blocks; b++ {
				eng.AddRef(core.Ref{Block: b, Inode: 1, Offset: b, Length: 1}, 1)
			}
			fCheckpoint(t, eng, 1)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := fs.List()
			if err != nil {
				t.Fatal(err)
			}

			if eng, err := open(tc.wrong); err == nil {
				eng.Close()
				t.Fatal("Open accepted a partitioning the runs on disk contradict")
			} else if !strings.Contains(err.Error(), ".run") || !strings.Contains(err.Error(), "partition") {
				t.Fatalf("Open error %q names no run and partition", err)
			}
			if after, err := fs.List(); err != nil || !slices.Equal(after, before) {
				t.Fatalf("the refused Open left %v (%v), want %v", after, err, before)
			}

			eng, err = open(tc.written)
			if err != nil {
				t.Fatalf("reopening as written: %v", err)
			}
			defer eng.Close()
			if got := fQuery(t, eng, 150); len(got) != 1 || got[0].Inode != 1 {
				t.Fatalf("block 150 answers %+v, want its one owner", got)
			}
		})
	}
}
