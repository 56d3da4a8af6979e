package lsm

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// viewCollect reads one block through a view.
func viewCollect(t *testing.T, v *View, table string, block uint64) [][]byte {
	t.Helper()
	var out [][]byte
	if err := v.CollectBlock(table, block, func(rec []byte) bool {
		out = append(out, append([]byte(nil), rec...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRangeIterMatchesCollectBlock reads a range that crosses a partition
// boundary, over runs holding duplicates and a deletion-vector entry, merged
// with in-memory records: block by block it yields what CollectBlock reads
// plus the in-memory records of the block, sorted and each once.
func TestRangeIterMatchesCollectBlock(t *testing.T) {
	db := openTestDB(t, storage.NewMemFS(), 2)
	rng := rand.New(rand.NewSource(1))
	for cp := uint64(1); cp <= 4; cp++ {
		recs := map[string][]byte{} // a run holds each record once; runs may share one
		for i := 0; i < 200; i++ {
			r := rec16(980+uint64(rng.Intn(40)), uint64(rng.Intn(8)))
			recs[string(r)] = r
		}
		flushRecords(t, db, "from", cp, slices.Collect(maps.Values(recs)))
	}
	flushRecords(t, db, "from", 5, [][]byte{rec16(1000, 3), rec16(1000, 5)})
	db.Table("from").DeleteRecord(rec16(1000, 3)) // and 1000/5 is in memory too
	const lo, last = 990, 1010
	mem := [][]byte{rec16(995, 100), rec16(1000, 5), rec16(1000, 100), rec16(1010, 100)} // sorted
	v := db.AcquireView()
	defer v.Release()
	it := v.Range("from", lo, last, 0, mem)
	for b := uint64(lo); b <= last; b++ {
		want := viewCollect(t, v, "from", b)
		for _, m := range mem {
			if blockOf(m) == b && !slices.ContainsFunc(want, func(w []byte) bool { return bytes.Equal(w, m) }) {
				want = append(want, m)
			}
		}
		slices.SortFunc(want, bytes.Compare)
		if err := it.Advance(); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		for {
			rec, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, slices.Clone(rec))
		}
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("block %d: range read %x, want %x", b, got, want)
		}
	}
}

func listFiles(t *testing.T, fs storage.VFS) map[string]bool {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// compactInto merges all "from" runs of partition 0 into one level-1 run
// and commits an edit that drops the old runs — the lsm-level skeleton of
// what core compaction does.
func compactInto(t *testing.T, db *DB) {
	t.Helper()
	tbl := db.Table("from")
	var recs [][]byte
	scanTable(t, tbl, func(rec []byte) { recs = append(recs, slices.Clone(rec)) })
	edit := db.NewEdit().AddRun(buildRun(t, db, "from", 1, db.CP(), storage.SrcCompaction, recs...))
	for _, r := range tbl.Runs(0) {
		edit.DropRun("from", r.Name())
	}
	if err := edit.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestViewKeepsSupersededRunsReadable is the deferred-reclamation
// contract: a run file superseded by a commit stays on disk, and the
// pinned view keeps reading the pre-commit state, until the last view
// referencing the run is released.
func TestViewKeepsSupersededRunsReadable(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(5, 100), rec16(9, 1)})
	flushRecords(t, db, "from", 2, [][]byte{rec16(5, 101)})

	v := db.AcquireView()
	oldRuns := v.Runs("from", 0)
	if len(oldRuns) != 2 {
		t.Fatalf("view pinned %d runs, want 2", len(oldRuns))
	}
	v2 := db.AcquireView() // second holder of the same runs

	compactInto(t, db)

	// Live state: one compacted run.
	if got := db.Table("from").Runs(0); len(got) != 1 {
		t.Fatalf("live runs after compaction = %d, want 1", len(got))
	}
	// Superseded files are still present: the views pin them.
	files := listFiles(t, fs)
	for _, r := range oldRuns {
		if !files[r.Name()] {
			t.Fatalf("superseded run %s deleted while views hold it", r.Name())
		}
	}
	// The view still reads the old state, records intact.
	got := viewCollect(t, v, "from", 5)
	if len(got) != 2 {
		t.Fatalf("view block 5: %d records, want 2", len(got))
	}
	for i, want := range []uint64{100, 101} {
		if binary.BigEndian.Uint64(got[i][8:]) != want {
			t.Fatalf("view record %d payload = %d, want %d", i, binary.BigEndian.Uint64(got[i][8:]), want)
		}
	}
	// A fresh view sees the compacted state.
	v3 := db.AcquireView()
	if got := v3.Runs("from", 0); len(got) != 1 {
		t.Fatalf("fresh view runs = %d, want 1", len(got))
	}
	v3.Release()

	// First release: files must survive, v2 still pins them.
	v.Release()
	files = listFiles(t, fs)
	for _, r := range oldRuns {
		if !files[r.Name()] {
			t.Fatalf("run %s deleted while second view still holds it", r.Name())
		}
	}
	// Last release reclaims the superseded files.
	v2.Release()
	files = listFiles(t, fs)
	for _, r := range oldRuns {
		if files[r.Name()] {
			t.Fatalf("run %s not reclaimed after last release", r.Name())
		}
	}
	// Release is idempotent.
	v2.Release()
}

// TestViewSnapshotsDeletionVector: DV mutations after the pin must not
// leak into the view (copy-on-write), and the view reports the change via
// UnchangedRuns even while every input run is still live.
func TestViewSnapshotsDeletionVector(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(5, 100), rec16(5, 101)})
	unchanged := func(v *View) bool { return v.UnchangedRuns("from", 0, v.Runs("from", 0)) }

	v := db.AcquireView()
	if !unchanged(v) {
		t.Fatal("fresh view reports change")
	}

	tbl := db.Table("from")
	tbl.DeleteRecord(rec16(5, 100))

	// Live reads hide the record; the pinned view still sees it.
	if got := collect(t, tbl, 5); len(got) != 1 {
		t.Fatalf("live block 5: %d records, want 1", len(got))
	}
	if got := viewCollect(t, v, "from", 5); len(got) != 2 {
		t.Fatalf("view block 5: %d records, want 2", len(got))
	}
	if unchanged(v) {
		t.Fatal("view does not report the DV mutation")
	}
	// A view acquired after the mutation must observe it, even though no
	// Commit installed a new version (the stale current version is
	// rebuilt on acquire).
	v2 := db.AcquireView()
	if got := viewCollect(t, v2, "from", 5); len(got) != 1 {
		t.Fatalf("fresh view block 5: %d records, want 1", len(got))
	}
	if !unchanged(v2) {
		t.Fatal("fresh view reports change")
	}
	v2.Release()
	v.Release()

	// With no view pinned a mutation updates the map in place (nobody can
	// be reading it); the next pin observes it, and a mutation after that
	// pin must copy again.
	tbl.DeleteRecord(rec16(5, 101))
	v3 := db.AcquireView()
	defer v3.Release()
	if got := viewCollect(t, v3, "from", 5); len(got) != 0 {
		t.Fatalf("view pinned after an unpinned mutation: %d records, want 0", len(got))
	}
	tbl.DeleteRecord(rec16(7, 1))
	if _, leaked := v3.ver.tables["from"].dv[string(rec16(7, 1))]; leaked {
		t.Fatal("mutation after the pin leaked into the view's deletion vector")
	}
	if tbl.DVLen() != 3 {
		t.Fatalf("live vector has %d entries, want 3", tbl.DVLen())
	}
	// Taking an entry back is a mutation like adding one: the pinned view
	// keeps hiding the record, the next pin shows it.
	v4 := db.AcquireView()
	defer v4.Release()
	tbl.UndeleteRecord(rec16(5, 101))
	if got := viewCollect(t, v4, "from", 5); len(got) != 0 {
		t.Fatalf("view pinned before the undelete: %d records, want 0", len(got))
	}
	if got := collect(t, tbl, 5); len(got) != 1 || unchanged(v4) {
		t.Fatalf("after the undelete: %d records live, want 1, and the older view must report the change", len(got))
	}
}

// TestViewUnchangedDetectsRunChanges: UnchangedRuns holds while a view's
// inputs stay live — a run appended to their partition leaves it true —
// and turns false once a commit drops one of them. Other partitions are
// judged by their own inputs.
func TestViewUnchangedDetectsRunChanges(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 4)
	flushRecords(t, db, "from", 1, [][]byte{rec16(5, 100), rec16(2500, 7)})
	flushRecords(t, db, "from", 2, [][]byte{rec16(6, 1)})

	v := db.AcquireView()
	defer v.Release()
	for p := 0; p < 4; p++ {
		if !v.UnchangedRuns("from", p, v.Runs("from", p)) {
			t.Fatalf("fresh view reports change in partition %d", p)
		}
	}
	// Partition 0 covers blocks [0, 1000); 2500 lands in partition 2.
	inputs := v.Runs("from", 0)
	flushRecords(t, db, "from", 3, [][]byte{rec16(10, 1)})
	if !v.UnchangedRuns("from", 0, inputs) {
		t.Fatal("a run appended beside the inputs invalidated them")
	}
	if err := db.NewEdit().DropRun("from", inputs[0].Name()).Commit(); err != nil {
		t.Fatal(err)
	}
	if v.UnchangedRuns("from", 0, inputs) {
		t.Fatal("dropped input not detected")
	}
	if !v.UnchangedRuns("from", 0, inputs[1:]) {
		t.Fatal("the inputs still live report change")
	}
	if !v.UnchangedRuns("from", 2, v.Runs("from", 2)) {
		t.Fatal("untouched partition reports change")
	}
}

// TestViewRefcountsAcrossPartialDrop: a commit that drops only some runs
// reclaims exactly those when the view goes, and RunCount/CP behave.
func TestViewRefcountsAcrossPartialDrop(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(1, 10)})
	flushRecords(t, db, "from", 2, [][]byte{rec16(2, 20)})

	v := db.AcquireView()
	if v.CP() != 2 {
		t.Fatalf("view CP = %d, want 2", v.CP())
	}
	if v.RunCount() != 2 {
		t.Fatalf("view RunCount = %d, want 2", v.RunCount())
	}
	keep := db.Table("from").Runs(0)[0]
	drop := db.Table("from").Runs(0)[1]
	if err := db.NewEdit().DropRun("from", drop.Name()).Commit(); err != nil {
		t.Fatal(err)
	}
	if !listFiles(t, fs)[drop.Name()] {
		t.Fatal("dropped run reclaimed under a live view")
	}
	v.Release()
	files := listFiles(t, fs)
	if files[drop.Name()] {
		t.Fatal("dropped run not reclaimed after release")
	}
	if !files[keep.Name()] {
		t.Fatal("live run reclaimed")
	}
}

// TestRemovedRunsLeaveTheCache: a checkpoint's runs enter the cache as
// they are written, and pages of merged-away runs stay charged only as long
// as some view can still read them — through the pinned view they keep
// serving hits, and the release that reclaims the files takes them out,
// instead of leaving them to displace live pages until eviction reaches
// them. The merge itself adds nothing to the cache, neither the pages its
// scan reads nor its output, whether its inputs are resident or cold.
func TestRemovedRunsLeaveTheCache(t *testing.T) {
	db := openTestDB(t, storage.NewMemFS(), 1)
	flushRecords(t, db, "from", 1, [][]byte{rec16(5, 100), rec16(9, 1)})
	flushRecords(t, db, "from", 2, [][]byte{rec16(5, 101)})
	tbl := db.Table("from")
	warm := db.cache.SizeBytes()
	if warm == 0 || db.cache.Len() != 2 {
		t.Fatalf("%d pages, %d bytes cached after writing two one-leaf runs", db.cache.Len(), warm)
	}
	_, misses := db.cache.Stats()
	collect(t, tbl, 5)
	if _, m := db.cache.Stats(); m != misses {
		t.Fatalf("a query of the runs just written missed the cache %d times", m-misses)
	}

	v := db.AcquireView()
	compactInto(t, db) // its scan is served from the cache and adds nothing
	if got := db.cache.SizeBytes(); got != warm || db.cache.Len() != 2 {
		t.Fatalf("%d pages, %d bytes cached after the merge, %d bytes before: the merge adds nothing, and the pinned view still reads its runs",
			db.cache.Len(), got, warm)
	}
	_, misses = db.cache.Stats()
	if got := viewCollect(t, v, "from", 5); len(got) != 2 {
		t.Fatalf("pinned view block 5: %d records, want 2", len(got))
	}
	if _, m := db.cache.Stats(); m != misses {
		t.Fatalf("pinned view missed the cache %d times reading its runs' pages", m-misses)
	}

	v.Release()
	if got := db.cache.SizeBytes(); got != 0 || db.cache.Len() != 0 {
		t.Fatalf("%d pages, %d bytes still charged to runs no view can reach", db.cache.Len(), got)
	}
	if got := collect(t, tbl, 5); len(got) != 2 {
		t.Fatalf("block 5 after the merge: %d records, want 2", len(got))
	}
	if db.cache.Len() != 1 {
		t.Fatalf("%d pages cached, want the merged run's one leaf, read by the query", db.cache.Len())
	}

	// A merge of cold inputs: its scan misses every page and inserts none.
	flushRecords(t, db, "from", 3, [][]byte{rec16(5, 102)})
	db.cache.Clear()
	compactInto(t, db)
	if _, m := db.cache.Stats(); m != 2 || db.cache.Len() != 0 {
		t.Fatalf("merging two cold one-leaf runs missed %d times and left %d pages cached, want 2 and none", m, db.cache.Len())
	}
	if got := collect(t, tbl, 5); len(got) != 3 {
		t.Fatalf("block 5 after the second merge: %d records, want 3", len(got))
	}
}

// TestWrittenPagesEvictNothing: a checkpoint writes its pages through only
// into the room the cache has free, and a merge writes none, so the pages
// of another partition that queries read stay resident through checkpoints
// and a merge of this one larger than the whole cache — whether they were
// read before this partition's pages entered the cache (the least recent,
// which an evicting write would take first) or after.
func TestWrittenPagesEvictNothing(t *testing.T) {
	const budget = 8 * storage.PageSize
	for _, bFirst := range []bool{true, false} {
		db, err := Open(storage.NewMemFS(), Options{
			Tables:        []TableSpec{{Name: "from", RecordSize: testRecSize}},
			Partitions:    2,
			PartitionSpan: 1000,
			Cache:         btree.NewCacheBytes(budget),
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl := db.Table("from")
		// Partition 0 (A): two runs of 1500 records, six leaves each, twelve
		// once merged, half again as many as the cache holds. Partition 1
		// (B): one leaf, queried once it is written.
		var odd, even [][]byte
		for i := uint64(0); i < 3000; i++ {
			if i%2 == 0 {
				even = append(even, rec16(i/3, i))
			} else {
				odd = append(odd, rec16(i/3, i))
			}
		}
		cp := uint64(0)
		writeB := func() {
			cp++
			flushRecords(t, db, "from", cp, [][]byte{rec16(1500, 1), rec16(1501, 2), rec16(1502, 3)})
			for blk := uint64(1500); blk <= 1502; blk++ {
				collect(t, tbl, blk)
			}
		}
		if bFirst {
			writeB()
		}
		for _, recs := range [][][]byte{even, odd} {
			cp++
			flushRecords(t, db, "from", cp, recs)
		}
		if !bFirst {
			writeB()
		}
		if got := db.cache.SizeBytes(); got > budget || got < budget/2 {
			t.Fatalf("bFirst=%v: %d bytes cached of a %d budget after checkpoints larger than it", bFirst, got, budget)
		}
		// A pinned view keeps the inputs' pages until the merge is checked.
		pages, v := db.cache.Len(), db.AcquireView()
		compactInto(t, db)
		if got := db.cache.Len(); got != pages {
			t.Fatalf("bFirst=%v: %d pages cached after the merge of A, %d before", bFirst, got, pages)
		}
		v.Release()
		_, misses := db.cache.Stats()
		for blk := uint64(1500); blk <= 1502; blk++ {
			if got := collect(t, tbl, blk); len(got) != 1 {
				t.Fatalf("block %d: %d records, want 1", blk, len(got))
			}
		}
		if _, m := db.cache.Stats(); m != misses {
			t.Fatalf("bFirst=%v: writing A evicted B's pages: B missed the cache %d times", bFirst, m-misses)
		}
	}
}
