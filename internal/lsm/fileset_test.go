package lsm

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// flushFile writes one consistency point's runs the way the engine's
// checkpoint does — one file per partition through a FileSet, the records
// of each of tables a section of it in that order — and commits them at cp.
func flushFile(t testing.TB, db *DB, cp uint64, tables []string, recs map[string][][]byte) {
	t.Helper()
	set := db.NewFileSet(0, cp, storage.SrcCheckpoint, tables...)
	for _, table := range tables {
		if err := set.Done(table, addAll(set, table, recs[table])); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := set.Finish()
	if err != nil {
		t.Fatal(err)
	}
	edit := db.NewEdit().SetCP(cp)
	for _, ref := range refs {
		edit.AddRun(ref)
	}
	if err := edit.Commit(); err != nil {
		t.Fatal(err)
	}
}

// addAll adds recs, sorted, to table's runs of set, one per partition.
func addAll(set *FileSet, table string, recs [][]byte) error {
	sorted := slices.Clone(recs)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	runs := map[int]*RunBuilder{}
	for _, r := range sorted {
		p := set.db.PartitionOf(blockOf(r))
		if runs[p] == nil {
			runs[p] = set.Run(table, p, len(sorted))
		}
		if err := runs[p].Add(r); err != nil {
			return err
		}
	}
	return nil
}

// countIO installs a plan on fs whose hook counts the calls of each op per
// file.
func countIO(fs *storage.MemFS) func(op storage.Op, name string) int {
	var mu sync.Mutex
	n := map[storage.Op]map[string]int{}
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		mu.Lock()
		defer mu.Unlock()
		if n[c.Op] == nil {
			n[c.Op] = map[string]int{}
		}
		n[c.Op][c.Name]++
		return nil
	}})
	return func(op storage.Op, name string) int {
		mu.Lock()
		defer mu.Unlock()
		return n[op][name]
	}
}

// TestFileSetLayout: a consistency point of two tables in two partitions
// is two files, each created, written and synced once, its runs' page
// grids back to back in table order and their filters after them; the
// manifest names each file once, and the runs read back the same before
// and after a reopen.
func TestFileSetLayout(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 2)
	calls := countIO(fs)
	recs := map[string][][]byte{"from": {rec16(1, 1), rec16(2, 1), rec16(1500, 1)}, "to": {rec16(1, 2), rec16(1600, 2)}}
	for b := uint64(0); b < 400; b++ {
		recs["to"] = append(recs["to"], rec16(100+b, 3))
	}
	flushFile(t, db, 1, []string{"from", "to"}, recs)

	files := db.Files()
	if len(files) != 2 || !strings.HasPrefix(files[0], "cp.p000.") || !strings.HasPrefix(files[1], "cp.p001.") {
		t.Fatalf("the manifest names %v, want one checkpoint file per partition", files)
	}
	for _, name := range files {
		if c, w, s := calls(storage.OpCreate, name), calls(storage.OpWrite, name), calls(storage.OpSync, name); c != 1 || w != 1 || s != 1 {
			t.Fatalf("%s: %d creates, %d writes, %d syncs, want one of each", name, c, w, s)
		}
	}
	for p, name := range files {
		from, to := db.Table("from").Runs(p)[0], db.Table("to").Runs(p)[0]
		if from.file != to.file || from.Name() != name || to.Name() != name {
			t.Fatalf("partition %d: runs in %s and %s, want both in %s", p, from.Name(), to.Name(), name)
		}
		if from.pageExt.Off != 0 || to.pageExt.Off != from.pageExt.Len ||
			from.filterExt.Off != from.pageExt.Len+to.pageExt.Len || to.filterExt.Off != from.filterExt.Off+from.filterExt.Len {
			t.Fatalf("partition %d: from at %+v/%+v, to at %+v/%+v: want the page grids, then the filters, back to back",
				p, from.pageExt, from.filterExt, to.pageExt, to.filterExt)
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, _ := f.Size()
		if name == db.commit {
			env, footer := trailer(t, fs, name) // the commit rides the file made last
			size -= int64(len(env) + len(footer))
		}
		if size != from.SizeBytes()+to.SizeBytes() {
			t.Fatalf("%s: %d bytes for runs of %d and %d: no byte is padding", name, size, from.SizeBytes(), to.SizeBytes())
		}
		// The file opened as one run, as a tool handed its name would, is
		// its first run, filter included.
		whole, err := btree.Open(f, nil)
		if err == nil {
			_, err = whole.BloomBytes()
		}
		if err != nil || whole.RecordCount() != from.Records() || whole.SizeBytes() != from.SizeBytes() {
			t.Fatalf("%s opened whole: %v; want the From run's %d records", name, err, from.Records())
		}
		f.Close()
	}
	answers := func(db *DB) (out []string) {
		for _, table := range []string{"from", "to"} {
			for _, b := range []uint64{1, 2, 100, 250, 499, 1500, 1600} {
				for _, r := range collect(t, db.Table(table), b) {
					out = append(out, table+string(r))
				}
			}
		}
		return out
	}
	want := answers(db)
	if len(want) != 8 {
		t.Fatalf("%d records read back, want 8", len(want))
	}
	db.Close()
	db2 := openTestDB(t, fs, 2)
	if got := answers(db2); !slices.Equal(got, want) {
		t.Fatal("the reopened store answers differently")
	}
}

// bigRecords returns n sorted records of one block each from base, more
// than a write buffer holds in a raw run.
func bigRecords(base, n uint64) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = rec16(base+uint64(i), uint64(i))
	}
	return recs
}

// threeTables opens a store of one partition with the engine's three
// tables, which writes runs in format.
func threeTables(t *testing.T, fs storage.VFS, format btree.Format) *DB {
	t.Helper()
	db, err := Open(fs, Options{Tables: []TableSpec{
		{Name: "from", RecordSize: testRecSize}, {Name: "to", RecordSize: testRecSize}, {Name: "combined", RecordSize: testRecSize}},
		RunFormat: format})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// buildSet builds recs, a table's sorted records each, through one set of
// tables in format, with build feeding the set and ending its streams, and
// returns the bytes of the one file it leaves and how often that file was
// written and synced, after checking that each run reads back its records.
// A table without records gets no run. A build that has not finished
// within a minute is stuck: some section waits for an earlier one.
func buildSet(t *testing.T, format btree.Format, tables []string, recs map[string][][]byte, build func(*FileSet) error) (data []byte, writes, syncs int) {
	t.Helper()
	fs := storage.NewMemFS()
	db := threeTables(t, fs, format)
	calls := countIO(fs)
	set := db.NewFileSet(1, 1, storage.SrcCompaction, tables...)
	type result struct {
		refs []RunRef
		err  error
	}
	built := make(chan result, 1)
	go func() {
		err := build(set)
		if err != nil {
			built <- result{nil, err}
			return
		}
		refs, err := set.Finish()
		built <- result{refs, err}
	}()
	var refs []RunRef
	select {
	case r := <-built:
		if r.err != nil {
			t.Fatal(r.err)
		}
		refs = r.refs
	case <-time.After(time.Minute):
		t.Fatal("the build did not finish: a section waits for an earlier one")
	}
	tables = slices.DeleteFunc(slices.Clone(tables), func(table string) bool { return len(recs[table]) == 0 })
	if len(refs) != len(tables) {
		t.Fatalf("%d runs, want %d", len(refs), len(tables))
	}
	name := refs[0].file.name
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, ref := range refs {
		rd := ref.built.Open(ref.rm.view(f), nil)
		if ref.file != refs[0].file || rd.Header().RootPage <= 64 {
			t.Fatalf("refs %+v: want runs of one file, each larger than a write buffer", refs)
		}
		if ref.table != tables[i] {
			t.Fatalf("run %d is %s's, want %s's", i, ref.table, tables[i])
		}
		it, err := rd.First()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; ; j++ {
			r, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if j != len(recs[ref.table]) {
					t.Fatalf("%s run reads back %d records, want %d", ref.table, j, len(recs[ref.table]))
				}
				break
			}
			if !bytes.Equal(r, recs[ref.table][j]) {
				t.Fatalf("%s run's record %d reads back %x, want %x", ref.table, j, r, recs[ref.table][j])
			}
		}
	}
	return readFile(t, fs, name), calls(storage.OpWrite, name), calls(storage.OpSync, name)
}

// spreadRecords returns n sorted records of one block each from base,
// whose second column spreads over 64 bits, so that a delta run of them
// too outgrows a write buffer.
func spreadRecords(base, n uint64) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = rec16(base+uint64(i), uint64(i)*0x9E3779B97F4A7C15)
	}
	return recs
}

// formatRecords is bigRecords for a raw run and spreadRecords for a delta
// one.
func formatRecords(format btree.Format, base, n uint64) [][]byte {
	if format == btree.FormatDelta {
		return spreadRecords(base, n)
	}
	return bigRecords(base, n)
}

// oneAfterTheOther is a build that streams the tables in order, ending each
// before the next starts.
func oneAfterTheOther(tables []string, recs map[string][][]byte) func(*FileSet) error {
	return func(set *FileSet) error {
		for _, table := range tables {
			if err := set.Done(table, addAll(set, table, recs[table])); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestFileSetStreamsSectionsInPlace: runs that outgrow their write
// buffers stream into their places in the file once the tables before
// them are done, and tables added side by side — a later one perhaps
// buffering its whole run meanwhile — leave the bytes a one-after-the-other
// build leaves, synced once, in both formats written; in the delta format
// too when the first table gets no record, so the second streams into the
// file's start with its header page.
func TestFileSetStreamsSectionsInPlace(t *testing.T) {
	tables := []string{"from", "to"}
	for _, c := range []struct {
		name   string
		format btree.Format
		from   uint64 // records of the from table
	}{
		{"raw", btree.FormatRaw, 40000},
		{"delta", btree.FormatDelta, 40000},
		{"delta, first table empty", btree.FormatDelta, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs := map[string][][]byte{"from": formatRecords(c.format, 0, c.from), "to": formatRecords(c.format, 10, 40000)}
			want, writes, _ := buildSet(t, c.format, tables, recs, oneAfterTheOther(tables, recs))
			// A run that streams takes a write of a full buffer, and a
			// file whose first run streamed its header page at the end.
			if want := 3 + min(c.from, 1); uint64(writes) < want {
				t.Fatalf("%d writes, want %d at least: the runs did not stream", writes, want)
			}
			got, _, syncs := buildSet(t, c.format, tables, recs, func(set *FileSet) error {
				var wg sync.WaitGroup
				errs := make([]error, 2)
				for i, table := range []string{"to", "from"} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = set.Done(table, addAll(set, table, recs[table]))
					}()
				}
				wg.Wait()
				return errors.Join(errs...)
			})
			if !bytes.Equal(got, want) {
				t.Fatal("runs built side by side left other bytes than runs built one after the other")
			}
			if syncs != 1 {
				t.Fatalf("%d syncs of the file, want 1", syncs)
			}
		})
	}
}

// TestFileSetInterleavesSectionsOnOneGoroutine: one goroutine adds to three
// sections of a file in turn, as a merge's join does, each section larger
// than a write buffer. Nothing waits for an earlier section to be done, so
// the build finishes; it syncs once and leaves the bytes a
// one-after-the-other build leaves, in both formats written.
func TestFileSetInterleavesSectionsOnOneGoroutine(t *testing.T) {
	tables := []string{"from", "to", "combined"}
	const n = 40000
	for _, format := range []btree.Format{btree.FormatRaw, btree.FormatDelta} {
		t.Run(format.String(), func(t *testing.T) {
			recs := map[string][][]byte{"from": formatRecords(format, 0, n), "to": formatRecords(format, 10, n), "combined": formatRecords(format, 20, n)}
			want, _, _ := buildSet(t, format, tables, recs, oneAfterTheOther(tables, recs))
			got, _, syncs := buildSet(t, format, tables, recs, func(set *FileSet) error {
				var runs []*RunBuilder
				for _, table := range tables {
					runs = append(runs, set.Run(table, 0, n))
				}
				for i := range n {
					for _, b := range runs {
						if err := b.Add(recs[b.table.spec.Name][i]); err != nil {
							return err
						}
					}
				}
				return nil // Finish ends the three streams
			})
			if !bytes.Equal(got, want) {
				t.Fatal("runs built interleaved left other bytes than runs built one after the other")
			}
			if syncs != 1 {
				t.Fatalf("%d syncs of the file, want 1", syncs)
			}
		})
	}
}

// TestFileSetFailureFailsLaterTables: once an earlier table's stream has
// failed, a later table's Done fails with that error though its own stream
// went well, Finish fails, and Abort leaves no file and no cached page
// behind.
func TestFileSetFailureFailsLaterTables(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	set := db.NewFileSet(0, 1, storage.SrcCheckpoint, "from", "to")
	boom := errors.New("the from stream failed")
	if err := set.Run("from", 0, 1).Add(rec16(1, 1)); err != nil {
		t.Fatal(err)
	}
	// The later table's run outgrows its buffer before the earlier one
	// fails: its pages wait in it for a place they never get.
	to := set.Run("to", 0, 30000)
	for _, r := range bigRecords(0, 30000) {
		if err := to.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Done("from", boom); !errors.Is(err, boom) {
		t.Fatalf("Done = %v", err)
	}
	if err := set.Done("to", nil); !errors.Is(err, boom) {
		t.Fatalf("the later table's Done = %v, want the from stream's error", err)
	}
	if _, err := set.Finish(); !errors.Is(err, boom) {
		t.Fatalf("Finish = %v, want the from stream's error", err)
	}
	set.Abort()
	if names, _ := fs.List(); len(names) != 0 {
		t.Fatalf("Abort left %v", names)
	}
	if n := db.cache.Len(); n != 0 {
		t.Fatalf("Abort left %d cached pages", n)
	}
}

// TestCheckpointFileLifetime: a checkpoint file lives as long as the last
// version that references any of its runs. Dropping one run keeps the file
// for the other; a view pinning only the To run keeps it after the manifest
// stops naming it; the file goes when that view is released. A run's pages
// leave the cache when the run does, not when its file does.
func TestCheckpointFileLifetime(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushFile(t, db, 1, []string{"from", "to"}, map[string][][]byte{
		"from": {rec16(1, 1), rec16(2, 1)},
		"to":   {rec16(1, 2)},
	})
	name := db.Files()[0]
	if n := db.cache.Len(); n != 2 {
		t.Fatalf("%d pages cached, want the two runs' leaves", n)
	}
	check := func(when string, exists bool, deferred, cached int) {
		t.Helper()
		if got := listFiles(t, fs)[name]; got != exists {
			t.Fatalf("%s: file exists = %v, want %v", when, got, exists)
		}
		if got := db.DeferredFiles(); got != deferred {
			t.Fatalf("%s: %d deferred files, want %d", when, got, deferred)
		}
		if got := db.cache.Len(); got != cached {
			t.Fatalf("%s: %d pages cached, want %d", when, got, cached)
		}
	}

	v1 := db.AcquireView()
	if err := db.NewEdit().DropRun("from", name).Commit(); err != nil {
		t.Fatal(err)
	}
	if files := db.Files(); !slices.Equal(files, []string{db.commit, name}) {
		t.Fatalf("after the From run's drop the commit needs %v", files)
	}
	check("From dropped, a view pins both runs", true, 0, 2)
	v1.Release()
	check("From reclaimed", true, 0, 1)

	v2 := db.AcquireView()
	if err := db.NewEdit().DropRun("to", name).Commit(); err != nil {
		t.Fatal(err)
	}
	if files := db.Files(); !slices.Equal(files, []string{db.commit}) {
		t.Fatalf("after both drops the commit needs %v", files)
	}
	check("both dropped, a view pins the To run", true, 1, 1)
	if got := viewCollect(t, v2, "to", 1); len(got) != 1 {
		t.Fatalf("the pinned To run reads %d records of block 1, want 1", len(got))
	}
	v2.Release()
	check("the last view released", false, 0, 0)
}

// TestSharedFileHandles: a file's runs read through one handle, which
// closes with the last of them.
func TestSharedFileHandles(t *testing.T) {
	fs := storage.NewMemFS()
	db := openTestDB(t, fs, 1)
	flushFile(t, db, 1, []string{"from", "to"}, map[string][][]byte{"from": {rec16(1, 1)}, "to": {rec16(1, 2)}})
	name := db.Files()[0]
	// A commit file of its own, so that the reopen reads the commit from it
	// and opens the run file only for its runs.
	if err := db.NewEdit().Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	calls := countIO(fs)
	db = openTestDB(t, fs, 1)
	if n := calls(storage.OpOpen, name); n != 1 {
		t.Fatalf("Open opened %s %d times, want once", name, n)
	}
	if err := db.NewEdit().DropRun("from", name).Commit(); err != nil {
		t.Fatal(err)
	}
	if n := calls(storage.OpClose, name); n != 0 {
		t.Fatalf("the handle closed with a run left on it (%d closes)", n)
	}
	if err := db.NewEdit().DropRun("to", name).Commit(); err != nil {
		t.Fatal(err)
	}
	if n := calls(storage.OpClose, name); n != 1 {
		t.Fatalf("%d closes of %s after its last run went, want 1", n, name)
	}
}
