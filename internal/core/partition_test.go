package core_test

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// TestQueryRangeReadsNoMoreThanPointQueries holds the one read path to its
// I/O promise in one partition and over four block ranges: on a store of
// several unmerged checkpoints, built by this process so that every run's
// Bloom filter is in memory, QueryRange over a span crossing partitions
// answers each block as Query does and reads no more query bytes from the
// device, each starting from an empty page cache.
func TestQueryRangeReadsNoMoreThanPointQueries(t *testing.T) {
	const blocks, lo, n = 2000, 300, 400
	for _, layout := range []struct {
		name  string
		parts int
	}{{"p1", 1}, {"range", 4}} {
		t.Run(layout.name, func(t *testing.T) {
			eng, err := core.Open(core.Options{VFS: storage.NewMemFS(), Catalog: core.NewMemCatalog(),
				Partitions: layout.parts, PartitionSpan: blocks / uint64(layout.parts)})
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

// TestRangePartitionsRequireASpan: several partitions with no span to
// divide the block space by cannot open.
func TestRangePartitionsRequireASpan(t *testing.T) {
	if _, err := core.Open(core.Options{VFS: storage.NewMemFS(), Catalog: core.NewMemCatalog(), Partitions: 3}); err == nil {
		t.Fatal("range partitions without span accepted")
	}
}

// TestOpenRefusesPartitionLayoutMismatch reopens a store under a
// partitioning that contradicts the one its runs were written with: another
// span, or another partition count. Open must refuse it, naming the table
// and what contradicts it, before it touches a file — a store that opened
// would route queries to partitions that do not hold the blocks, and
// answer them with nothing — and the right partitioning must still open
// and answer.
func TestOpenRefusesPartitionLayoutMismatch(t *testing.T) {
	const blocks = 200
	written := core.Options{Partitions: 2, PartitionSpan: 100}
	cases := []struct {
		name  string
		wrong core.Options
		want  []string // what the refusal names
	}{
		// Partition 1's run holds blocks 100..199, which span 1000 routes
		// to partition 0.
		{"span", core.Options{Partitions: 2, PartitionSpan: 1000},
			[]string{".run", `of table "`, "is in partition 1 on disk", "routes its block 100 to partition 0"}},
		{"count 4", core.Options{Partitions: 4, PartitionSpan: 100},
			[]string{`table "`, "has 2 partitions on disk, configured 4"}},
		{"count 1", core.Options{Partitions: 1},
			[]string{`table "`, "has 2 partitions on disk, configured 1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := storage.NewMemFS()
			open := func(opts core.Options) (*core.Engine, error) {
				opts.VFS, opts.Catalog = fs, core.NewMemCatalog()
				return core.Open(opts)
			}
			eng, err := open(written)
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
			before := memFiles(t, fs)

			if eng, err := open(tc.wrong); err == nil {
				eng.Close()
				t.Fatal("Open accepted a partitioning the runs on disk contradict")
			} else {
				for _, w := range tc.want {
					if !strings.Contains(err.Error(), w) {
						t.Fatalf("Open error %q does not name %q", err, w)
					}
				}
			}
			if after := memFiles(t, fs); !maps.EqualFunc(after, before, slices.Equal) {
				t.Fatalf("the refused Open changed the store: %v files before, %v after",
					slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)))
			}

			eng, err = open(written)
			if err != nil {
				t.Fatalf("reopening as written: %v", err)
			}
			defer eng.Close()
			for _, b := range []uint64{50, 150} {
				if got := fQuery(t, eng, b); len(got) != 1 || got[0].Inode != 1 {
					t.Fatalf("block %d answers %+v, want its one owner", b, got)
				}
			}
		})
	}
}

// memFiles reads every file of fs.
func memFiles(t *testing.T, fs *storage.MemFS) map[string][]byte {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err == nil {
			files[name] = make([]byte, size)
			_, err = f.ReadAt(files[name], 0)
		}
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestRelocationOutOfASettledPartitionMergesIt moves a block of a
// compacted partition into the other one. The checkpoint after it adds a
// run to the destination only, so the source partition still holds what
// its last whole merge left, but the deletion-vector entries of the move
// hide records of those runs: the next Compact must merge both partitions,
// empty the vector and answer the block from its new home, and the
// Compact after it is a fixed point.
func TestRelocationOutOfASettledPartitionMergesIt(t *testing.T) {
	fx := newMergeFixture(t, core.Options{Partitions: 2, PartitionSpan: fixtureBlocks})
	for cp := uint64(1); cp <= 4; cp++ {
		fx.epoch(cp)
	}
	compact := func() uint64 {
		t.Helper()
		before := fx.eng.Stats().Compactions
		if err := fx.eng.Compact(); err != nil {
			t.Fatal(err)
		}
		return fx.eng.Stats().Compactions - before
	}
	if n := compact(); n != 1 {
		t.Fatalf("the first Compact merged %d partitions, want partition 0", n)
	}
	fx.m.relocate(0, fixtureBlocks)
	if err := fx.eng.RelocateBlock(0, fixtureBlocks); err != nil {
		t.Fatal(err)
	}
	if err := fx.eng.Checkpoint(5); err != nil {
		t.Fatal(err)
	}
	if n := compact(); n != 2 {
		t.Fatalf("Compact after the move merged %d partitions, want both", n)
	}
	if _, entries := dvState(fx.eng); entries != 0 {
		t.Fatalf("%d deletion-vector entries survive the merges", entries)
	}
	fx.m.check(t, fx.eng, fixtureBlocks+1)
	if n := compact(); n != 0 {
		t.Fatalf("Compact of a settled store merged %d partitions", n)
	}
	fx.verify()
}
