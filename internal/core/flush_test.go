// Tests of the checkpoint flush as one merged stream per table: the run
// set a checkpoint writes is the same whatever the write-store shard count,
// and a flush that fails at any run-file I/O loses nothing and leaves
// nothing. Package core_test because the answers are checked against the
// model.
package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

const (
	flushBlocks = 1024 // the audited block space; four partitions of 256
	flushMoved  = 1000 // where the script relocates a block to; never drawn
)

// flushScript drives the shared update stream into eng: consistency points
// 1 and 2 — adds, removes of older references, same-CP add/remove pairs —
// each retained by a snapshot and checkpointed; the updates of consistency
// point 3, left buffered, with one more reference added there (returned);
// a whole merge, so that Combined runs exist; and the relocation of a block
// with live and completed references, which puts records of all three
// tables into the write stores. The caller checkpoints as 3. It returns the
// model of what the store then answers.
func flushScript(t *testing.T, eng *core.Engine, cat *core.MemCatalog) (m *model, buffered core.Ref) {
	t.Helper()
	const moved = 7
	m = newModel()
	apply := func(o refOp) {
		o.applyTo(eng)
		m.apply(o)
	}
	for _, batch := range cpBatches(hammerStreams(1, 900, 900, 3)[0]) {
		cp := batch[0].cp
		for i := uint64(0); i < 4; i++ {
			apply(refOp{ref: core.Ref{Block: moved, Inode: 100 + cp, Offset: i, Length: 1}, cp: cp})
		}
		if cp == 2 { // the moved block gets a completed interval
			apply(refOp{ref: core.Ref{Block: moved, Inode: 101, Length: 1}, cp: cp, remove: true})
		}
		for _, o := range batch {
			if o.ref.Block != moved {
				apply(o)
			}
		}
		if cp == 3 {
			break
		}
		m.snapshot(0, cp)
		if err := cat.CreateSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
		fCheckpoint(t, eng, cp)
	}
	buffered = core.Ref{Block: 901, Inode: 9, Length: 1}
	apply(refOp{ref: buffered, cp: 3})
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := eng.RelocateBlock(moved, flushMoved); err != nil {
		t.Fatal(err)
	}
	m.relocate(moved, flushMoved)
	return m, buffered
}

// runFiles returns the contents of every run file in fs, keyed by what
// wrote it — "cp" for a checkpoint's file, which holds the runs of all
// three tables, a table's name for a merge output — and partition, and
// ordered by file ID within each. The IDs themselves are left out: a
// checkpoint's partitions draw theirs in whatever order their first
// records arrive.
func runFiles(t *testing.T, fs *storage.MemFS) map[string][][]byte {
	t.Helper()
	names, err := fs.List() // sorted, and IDs are zero-padded
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][][]byte{}
	for _, name := range names {
		if !strings.HasSuffix(name, ".run") {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		key := name[:strings.Index(name, ".p")+5] // "cp.p003"
		files[key] = append(files[key], data)
	}
	return files
}

// TestCheckpointFlushRunSetIgnoresShardCount: sharding the write store
// buys update concurrency and costs nothing on disk. The same op stream
// through 1, 2 and 8 shards leaves byte-identical run files — the
// checkpoint files with their From, To and Combined sections included —
// the same run metadata and the same answers, and those are the model's.
func TestCheckpointFlushRunSetIgnoresShardCount(t *testing.T) {
	for _, parts := range []int{1, 4} {
		for _, comp := range []core.Compression{core.CompressionNone, core.CompressionDelta} {
			t.Run(fmt.Sprintf("partitions=%d/compression=%d", parts, comp), func(t *testing.T) {
				var (
					wantFiles  map[string][][]byte
					wantRuns   []string
					wantOwners [][]core.Owner
				)
				for _, shards := range []int{1, 2, 8} {
					fs, cat := storage.NewMemFS(), core.NewMemCatalog()
					eng, err := core.Open(core.Options{
						VFS: fs, Catalog: cat, WriteShards: shards, Compression: comp,
						Partitions: parts, PartitionSpan: flushBlocks / uint64(parts),
					})
					if err != nil {
						t.Fatal(err)
					}
					m, _ := flushScript(t, eng, cat)
					fCheckpoint(t, eng, 3)

					var runs []string
					for _, ri := range eng.RunInfos() {
						ri.Name = ""
						runs = append(runs, fmt.Sprintf("%+v", ri))
					}
					files := runFiles(t, fs)
					if len(files[fmt.Sprintf("cp.p%03d", parts-1)]) == 0 {
						t.Fatalf("no checkpoint file in the last partition: %v", slices.Collect(maps.Keys(files)))
					}
					owners := make([][]core.Owner, flushBlocks)
					for b := range owners {
						owners[b] = fQuery(t, eng, uint64(b))
					}
					m.check(t, eng, flushBlocks)
					eng.Close()
					if shards == 1 {
						wantFiles, wantRuns, wantOwners = files, runs, owners
						continue
					}
					if !reflect.DeepEqual(runs, wantRuns) {
						t.Fatalf("%d shards: runs differ from one shard's\n got: %v\nwant: %v", shards, runs, wantRuns)
					}
					for key, want := range wantFiles {
						got := files[key]
						if len(got) != len(want) {
							t.Fatalf("%d shards: %d run files of %s, one shard wrote %d", shards, len(got), key, len(want))
						}
						for i := range want {
							if !bytes.Equal(got[i], want[i]) {
								t.Fatalf("%d shards: run file %d of %s differs from one shard's", shards, i, key)
							}
						}
					}
					if len(files) != len(wantFiles) {
						t.Fatalf("%d shards: run files for %d (table, partition) pairs, one shard wrote %d", shards, len(files), len(wantFiles))
					}
					if !reflect.DeepEqual(owners, wantOwners) {
						t.Fatalf("%d shards: answers differ from one shard's", shards)
					}
				}
			})
		}
	}
}

// countRunIO installs a plan on fs whose hook counts the creates, writes
// and syncs of run files — a checkpoint builds its tables' runs side by
// side, hence the atomic — and fails the failAt-th of them (none if 0).
func countRunIO(fs *storage.MemFS, failAt int64) *atomic.Int64 {
	var n atomic.Int64
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		runIO := c.Op == storage.OpCreate || c.Op == storage.OpWrite || c.Op == storage.OpSync
		if runIO && strings.HasSuffix(c.Name, ".run") && n.Add(1) == failAt {
			return storage.ErrInjected
		}
		return nil
	}})
	return &n
}

// TestCheckpointFlushFailureAtEveryRunIO fails one checkpoint's flush at
// every create, write and sync of its run files in turn. Each time
// Checkpoint returns the error, every frozen record is back in the shard
// that owns its block — queries read only that shard, and a RemoveRef
// prunes only there — no run file the manifest does not list is left, and
// the retried Checkpoint commits what a reopen then finds.
func TestCheckpointFlushFailureAtEveryRunIO(t *testing.T) {
	opts := core.Options{WriteShards: 4, Partitions: 2, PartitionSpan: flushBlocks / 2}
	open := func(fs *storage.MemFS, cat *core.MemCatalog) *core.Engine {
		t.Helper()
		o := opts
		o.VFS, o.Catalog = fs, cat
		eng, err := core.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	// A clean flush counts the I/Os there are to fail.
	fs, cat := storage.NewMemFS(), core.NewMemCatalog()
	eng := open(fs, cat)
	flushScript(t, eng, cat)
	runIO := countRunIO(fs, 0)
	fCheckpoint(t, eng, 3)
	ios := runIO.Load()
	var flushed []string
	for _, ri := range eng.RunInfos() {
		if ri.CP == 3 {
			flushed = append(flushed, fmt.Sprintf("%s.p%d", ri.Table, ri.Partition))
		}
	}
	eng.Close()
	// The relocated block's one Combined record lands in partition 1.
	if want := "[combined.p1 from.p0 from.p1 to.p0 to.p1]"; fmt.Sprint(flushed) != want {
		t.Fatalf("the checkpoint under test flushed %v, want %s", flushed, want)
	}

	for n := int64(1); n <= ios; n++ {
		fs, cat := storage.NewMemFS(), core.NewMemCatalog()
		eng := open(fs, cat)
		m, buffered := flushScript(t, eng, cat)
		buffer, cached := eng.WSLen(), eng.CacheBytes()
		countRunIO(fs, n)
		if err := eng.Checkpoint(3); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("I/O %d: Checkpoint = %v, want the injected failure", n, err)
		}
		fs.SetFailurePlan(storage.FailurePlan{})
		if got := eng.WSLen(); got != buffer {
			t.Fatalf("I/O %d: %d records buffered after the failed flush, %d before", n, got, buffer)
		}
		// The aborted and discarded runs took the pages they wrote through.
		if got := eng.CacheBytes(); got != cached {
			t.Fatalf("I/O %d: %d bytes cached after the failed flush, %d before", n, got, cached)
		}
		if cp := eng.CP(); cp != 2 {
			t.Fatalf("I/O %d: CP = %d after the failed flush", n, cp)
		}
		if err := noOrphans(fs, eng); err != nil {
			t.Fatalf("I/O %d: %v", n, err)
		}
		m.check(t, eng, flushBlocks)
		pruned := eng.Stats().PrunedRemoves
		eng.RemoveRef(buffered, 3)
		m.update(buffered, 3, false)
		if got := eng.Stats().PrunedRemoves; got != pruned+1 {
			t.Fatalf("I/O %d: a same-CP RemoveRef did not find its AddRef in the owning shard after the restore", n)
		}

		fCheckpoint(t, eng, 3)
		if got := eng.WSLen(); got != 0 {
			t.Fatalf("I/O %d: %d records buffered after the retry", n, got)
		}
		if err := noOrphans(fs, eng); err != nil {
			t.Fatalf("I/O %d: %v", n, err)
		}
		m.check(t, eng, flushBlocks)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		reopened := open(fs, cat)
		m.check(t, reopened, flushBlocks)
		reopened.Close()
	}
}
