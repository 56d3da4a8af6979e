package lsm

import (
	"runtime"
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/bloom"
	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// raceEnabled is set by race_test.go in a -race build, whose detector
// allocates on its own.
var raceEnabled bool

// allocsDuring returns the heap allocations f makes, counted as
// testing.AllocsPerRun counts them: from the runtime's malloc total, at one
// P.
func allocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// filterRuns are delta runs whose filters take each encoding a delta run
// writes: blocks one in three (a bitmap), one in 17 (an Elias–Fano list)
// and one in 100 (a BLF2), each block in two records.
var filterRuns = []struct {
	name   string
	magic  string
	stride uint64
}{{"bitmap", "BLS1", 3}, {"Elias–Fano", "BLS1", 17}, {"BLF2", "BLF2", 100}}

func filterRunRecords(stride uint64) [][]byte {
	var recs [][]byte
	for b := uint64(1000); b < 1000+3000*stride; b += stride + b%2 {
		recs = append(recs, rec16(b, 1), rec16(b, 2))
	}
	return recs
}

func openDeltaDB(t *testing.T, fs storage.VFS) *DB {
	t.Helper()
	db, err := Open(fs, Options{Tables: []TableSpec{{Name: "from", RecordSize: testRecSize}}, RunFormat: btree.FormatDelta})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFilterAllocationBudget holds the filters to their allocation budget.
// A probe of a loaded run allocates nothing, whatever its filter's
// encoding. A seal's exact build allocates the set and its in-memory
// index only: the filter, one slice of words and, for an Elias–Fano list,
// the select sample and the occupied buckets — 4 allocations, 2 for a
// bitmap, measured; the blocks it reads are the gaps the builder already
// holds.
func TestFilterAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	budget := map[string]uint64{"bitmap": 2, "Elias–Fano": 4}
	for _, c := range filterRuns {
		fs := storage.NewMemFS()
		db := openDeltaDB(t, fs)
		set := db.NewFileSet(0, 1, storage.SrcCheckpoint, "from")
		b := set.Run("from", 0, 6000)
		for _, rec := range filterRunRecords(c.stride) {
			if err := b.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
		if want, ok := budget[c.name]; ok {
			if n := allocsDuring(b.sizeFilter); n != want {
				t.Errorf("%s: sizing the filter allocated %d times, budget %d", c.name, n, want)
			}
		}
		refs, err := set.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.NewEdit().SetCP(1).AddRun(refs[0]).Commit(); err != nil {
			t.Fatal(err)
		}
		db.Close()

		db = openDeltaDB(t, fs)
		run := db.Table("from").Runs(0)[0]
		if data, err := run.qreader.BloomBytes(); err != nil || string(data[:4]) != c.magic {
			t.Fatalf("%s: the run's filter is %q (%v), want %s", c.name, data[:4], err, c.magic)
		}
		run.MayContainBlock(run.MinBlock()) // loads the filter
		blk := run.MinBlock()
		if n := testing.AllocsPerRun(1000, func() { run.MayContainBlock(blk); blk += 5 }); n != 0 {
			t.Errorf("%s: a probe of a loaded run allocated %v times", c.name, n)
		}
		db.Close()
	}
}

// TestFirstProbesLoadTheSetOnce: many goroutines make the first probes of
// a reopened run at once. The run's exact set — decoded and given its
// in-memory index inside Run.bloomFilter's lazy load — is read from the file
// once, every goroutine probes the one filter, and every answer is exact.
func TestFirstProbesLoadTheSetOnce(t *testing.T) {
	for _, c := range filterRuns[:2] {
		fs := storage.NewMemFS()
		db := openDeltaDB(t, fs)
		recs := filterRunRecords(c.stride)
		flushRecords(t, db, "from", 1, recs)
		if err := db.NewEdit().Commit(); err != nil {
			t.Fatal(err)
		}
		db.Close()
		present := map[uint64]bool{}
		for _, rec := range recs {
			present[blockOf(rec)] = true
		}

		db = openDeltaDB(t, fs)
		run := db.Table("from").Runs(0)[0]
		before := fs.Stats().BytesRead
		const probers = 16
		filters := make([]*bloom.Filter, probers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range probers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for b := run.MinBlock() + uint64(g); b <= run.MaxBlock(); b += probers {
					if run.MayContainBlock(b) != present[b] {
						t.Errorf("%s: block %d answered %v", c.name, b, !present[b])
						return
					}
				}
				filters[g] = run.bloomFilter()
			}()
		}
		close(start)
		wg.Wait()
		if read, want := fs.Stats().BytesRead-before, int64(run.Header().FilterLen); read != want {
			t.Errorf("%s: the first probes read %d bytes, want the filter's %d once", c.name, read, want)
		}
		for _, f := range filters {
			if f == nil || f != filters[0] {
				t.Fatalf("%s: the probers saw different filters", c.name)
			}
		}
		if _, _, exact := filters[0].Range(); !exact {
			t.Fatalf("%s: the run's filter is no exact set", c.name)
		}
		db.Close()
	}
}
