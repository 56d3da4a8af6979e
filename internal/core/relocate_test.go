// Relocation and the frozen write store: RelocateBlock queues behind a
// checkpoint's flush, so these tests pin what the engine relies on instead
// of writing around it — a read failure that leaves nothing behind, the
// deletion vector a checkpoint persists and a failed install leaves alone,
// a block moved back to where it came from, and the lock order.
package core_test

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// failCalls installs a plan on fs whose hook fails every op call on a file
// whose name starts with prefix, with ErrInjected.
func failCalls(fs *storage.MemFS, op storage.Op, prefix string) {
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op == op && strings.HasPrefix(c.Name, prefix) {
			return storage.ErrInjected
		}
		return nil
	}})
}

func dvState(eng *core.Engine) (dirty bool, entries int) {
	for _, table := range []string{core.TableFrom, core.TableTo, core.TableCombined} {
		tbl := eng.DB().Table(table)
		dirty = dirty || tbl.DVDirty()
		entries += tbl.DVLen()
	}
	return dirty, entries
}

// TestRelocateReadFailureLeavesStateAndLogUntouched fails the read of the
// To run, the second of the three tables a relocation reads: the call must
// return the error with the block exactly where it was — nothing re-keyed,
// no vector touched — and without a log record that a later replay would
// complete behind the caller's back.
func TestRelocateReadFailureLeavesStateAndLogUntouched(t *testing.T) {
	fs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	opts := core.Options{VFS: fs, Catalog: cat, WriteShards: 1, CacheBytes: -1, Durability: wal.Buffered}
	eng, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const oldBlock, newBlock = 5, 900
	if err := cat.CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	eng.AddRef(fref(oldBlock, 1, 0, 0), 1)
	fCheckpoint(t, eng, 1)
	eng.RemoveRef(fref(oldBlock, 1, 0, 0), 2) // a To run record
	eng.AddRef(fref(oldBlock, 2, 0, 0), 2)
	fCheckpoint(t, eng, 2)
	eng.AddRef(fref(oldBlock, 3, 0, 0), 3) // stays in the write store
	before := fQuery(t, eng, oldBlock)
	if len(before) != 3 {
		t.Fatalf("setup: block %d has %d owners, want 3: %+v", oldBlock, len(before), before)
	}
	appends := eng.Stats().WALAppends

	for _, ri := range eng.RunInfos() {
		if ri.Table == core.TableTo {
			failCalls(fs, storage.OpRead, ri.Name)
		}
	}
	if err := eng.RelocateBlock(oldBlock, newBlock); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("RelocateBlock under a failing To read: %v, want the injected error", err)
	}
	fs.SetFailurePlan(storage.FailurePlan{})

	check := func(eng *core.Engine, when string) {
		t.Helper()
		if got := fQuery(t, eng, oldBlock); len(got) != len(before) {
			t.Fatalf("%s: old block has %d owners, want %d: %+v", when, len(got), len(before), got)
		}
		if got := fQuery(t, eng, newBlock); len(got) != 0 {
			t.Fatalf("%s: new block answers: %+v", when, got)
		}
		if dirty, entries := dvState(eng); dirty || entries != 0 {
			t.Fatalf("%s: deletion vectors touched (dirty=%v, %d entries)", when, dirty, entries)
		}
	}
	check(eng, "after the failed relocation")
	if st := eng.Stats(); st.Relocations != 0 || st.WALAppends != appends {
		t.Fatalf("failed relocation counted or logged: Relocations=%d, WALAppends %d -> %d", st.Relocations, appends, st.WALAppends)
	}

	// Close writes out and syncs the Buffered log; whatever it holds is what
	// a crash leaves for replay.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	eng2, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if got := eng2.Stats().WALReplayed; got != 1 {
		t.Fatalf("replayed %d log records, want 1 (the unflushed AddRef)", got)
	}
	check(eng2, "after crash and replay")

	// With the read healthy the same call goes through.
	if err := eng2.RelocateBlock(oldBlock, newBlock); err != nil {
		t.Fatal(err)
	}
	if got := fQuery(t, eng2, newBlock); len(got) != len(before) {
		t.Fatalf("retried relocation moved %d owners, want %d: %+v", len(got), len(before), got)
	}
	if got := fQuery(t, eng2, oldBlock); len(got) != 0 {
		t.Fatalf("old block answers after the retried relocation: %+v", got)
	}
}

// TestDirtyVectorPersistedByTheCheckpointThatFrozeIt pins the invariant the
// checkpoint install relies on when it persists a dirty deletion vector as
// it stands: between freeze and install nothing adds to the vector or
// clears it. No commit overlaps a flush: a merge that pinned its view
// before the relocation, and an expiry issued inside the flush, both wait
// for the checkpoint, which persists vector and re-keyed records together;
// then the merge conflicts, its partition's merge is planned again against
// the clean vector and installs, and the expiry applies retention with no
// deferral. A crash after all of it finds the relocation whole.
func TestDirtyVectorPersistedByTheCheckpointThatFrozeIt(t *testing.T) {
	fs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	opts := core.Options{VFS: fs, Catalog: cat, WriteShards: 1, Retention: core.RetainLive}
	eng, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.AddRef(fref(30, 3, 0, 0), 1)
	fCheckpoint(t, eng, 1)
	eng.AddRef(fref(31, 3, 1, 0), 2)
	fCheckpoint(t, eng, 2) // two From runs: something to merge

	var creates atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	relocErr, cpDone := make(chan error, 1), make(chan error, 1)
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op != storage.OpCreate || !strings.HasSuffix(c.Name, ".run") {
			return nil
		}
		switch creates.Add(1) {
		case 1:
			// The merge's file: its view is pinned and the
			// vectors it saw were clean. Dirty one, then hold a checkpoint
			// in its flush; the next run file created is that flush's.
			relocErr <- eng.RelocateBlock(30, 700)
			go func() { cpDone <- eng.Checkpoint(3) }()
			<-entered
		case 2:
			close(entered)
			<-release
		}
		return nil
	}})
	compactDone := make(chan error, 1)
	go func() { compactDone <- eng.Compact() }()
	if err := <-relocErr; err != nil {
		t.Fatal(err)
	}
	<-entered
	type expired struct {
		st  core.ExpireStats
		err error
	}
	expireDone := make(chan expired, 1)
	go func() {
		st, err := eng.Expire()
		expireDone <- expired{st, err}
	}()
	select {
	case err := <-compactDone:
		t.Fatalf("Compact returned inside the flush window: %v", err)
	case x := <-expireDone:
		t.Fatalf("Expire returned inside the flush window: %+v, %v", x.st, x.err)
	case <-time.After(20 * time.Millisecond):
	}
	if st := eng.Stats(); st.Compactions != 0 {
		t.Fatalf("Compactions = %d inside the flush window, want 0", st.Compactions)
	}
	if dirty, entries := dvState(eng); !dirty || entries != 1 {
		t.Fatalf("mid-flush vector: dirty=%v with %d entries, want dirty with 1", dirty, entries)
	}

	close(release)
	if err := <-cpDone; err != nil {
		t.Fatal(err)
	}
	if err := <-compactDone; err != nil {
		t.Fatal(err)
	}
	if x := <-expireDone; x.err != nil || x.st.Deferred {
		t.Fatalf("expiry issued mid-flush = %+v, %v; want retention applied after the checkpoint", x.st, x.err)
	}
	if ms, st := eng.MaintenanceStats(), eng.Stats(); ms.Conflicts != 1 || st.Compactions != 1 {
		t.Fatalf("merge pinned before the relocation: %d conflicts, %d compactions; want the conflict, then the re-planned merge", ms.Conflicts, st.Compactions)
	}
	if dirty, entries := dvState(eng); dirty || entries != 0 {
		t.Fatalf("after the checkpoint and the merge: dirty=%v with %d entries, want clean and the merged-away entry collected", dirty, entries)
	}

	fs.Crash()
	fs.SetFailurePlan(storage.FailurePlan{})
	eng2, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	relocationWhole := func(when string) {
		t.Helper()
		if owners := fQuery(t, eng2, 30); len(owners) != 0 {
			t.Fatalf("%s: relocated-away block answers: %+v", when, owners)
		}
		if owners := fQuery(t, eng2, 700); len(owners) != 1 || !owners[0].Live {
			t.Fatalf("%s: relocation target wrong: %+v", when, owners)
		}
		if owners := fQuery(t, eng2, 31); len(owners) != 1 {
			t.Fatalf("%s: bystander wrong: %+v", when, owners)
		}
	}
	relocationWhole("after the crash")
}

// TestRelocateBackToAVacatedBlock is the defragmenter's pattern — move data
// into space an earlier move vacated: A to B, checkpoint, B back to A. The
// first move's vector entries name exactly the records the second move
// re-keys, and the runs they hide still hold them. A must answer what it
// answered at the start and B nothing: through the closing checkpoint, a
// merge and a reopen, and when the second move is replayed from the log.
// The closed case adds an interval one of whose ends never reached a run at
// A — a second copy of the other end would pair as a live reference nobody
// added — and references that sit in the write store at either move.
func TestRelocateBackToAVacatedBlock(t *testing.T) {
	const a, b = 5, 900
	run := func(t *testing.T, closed, replay bool) {
		fs := storage.NewMemFS()
		cat := core.NewMemCatalog()
		opts := core.Options{VFS: fs, Catalog: cat, WriteShards: 1, Durability: wal.Buffered}
		eng, err := core.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { eng.Close() }()
		check := func(when string, want []core.Owner) {
			t.Helper()
			if got := fQuery(t, eng, a); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: block %d answers\n  %+v, want\n  %+v", when, a, got, want)
			}
			if got := fQuery(t, eng, b); len(got) != 0 {
				t.Fatalf("%s: vacated block %d answers %+v", when, b, got)
			}
		}

		eng.AddRef(fref(a, 1, 0, 0), 1)
		if closed {
			if err := cat.CreateSnapshot(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		fCheckpoint(t, eng, 1)
		if closed {
			eng.RemoveRef(fref(a, 1, 0, 0), 2) // [1, 2), kept by the snapshot; the To never reaches a run at A
			eng.AddRef(fref(a, 2, 0, 0), 2)    // in the write store at the first move
		}
		want := fQuery(t, eng, a)
		if n := map[bool]int{false: 1, true: 2}[closed]; len(want) != n {
			t.Fatalf("setup: block %d has %d owners, want %d: %+v", a, len(want), n, want)
		}
		if err := eng.RelocateBlock(a, b); err != nil {
			t.Fatal(err)
		}
		fCheckpoint(t, eng, 2)
		if got := fQuery(t, eng, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("after the first move block %d answers %+v, want %+v", b, got, want)
		}
		if closed {
			eng.AddRef(fref(b, 3, 0, 0), 3) // in the write store at the second move
			want = fQuery(t, eng, b)
		}
		if err := eng.RelocateBlock(b, a); err != nil {
			t.Fatal(err)
		}
		check("after moving back", want)
		if replay {
			// Close writes out the Buffered log; the crash leaves the second
			// move (and the reference added before it) to replay alone.
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			fs.Crash()
			if eng, err = core.Open(opts); err != nil {
				t.Fatal(err)
			}
			check("after crash and replay", want)
		}
		fCheckpoint(t, eng, 3)
		check("after the closing checkpoint", want)
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
		check("after compaction", want)
		if dirty, entries := dvState(eng); dirty || entries != 0 {
			t.Fatalf("after compaction: dirty=%v with %d vector entries, want clean and empty", dirty, entries)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		fs.Crash()
		if eng, err = core.Open(opts); err != nil {
			t.Fatal(err)
		}
		check("after the reopen", want)
	}
	for _, tc := range []struct {
		name           string
		closed, replay bool
	}{
		{"live", false, false},
		{"live, second move replayed", false, true},
		{"closed interval", true, false},
		{"closed interval, second move replayed", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) { run(t, tc.closed, tc.replay) })
	}
}

// TestFailedMergeInstallLeavesVectorUntouched fails the install of a merge
// whose inputs a clean vector entry points into: the open of its output,
// the install's one I/O. The failed install must leave the vector as it
// was — same entry, still clean, or the retry would defer on a vector
// nothing will ever persist — with no output file behind and every answer
// unchanged. The merge installs in memory, collecting the entry there; a
// commit that then fails leaves the vector clean, and the next one (an
// Expire's) persists it collected. An expiry whose commit fails is held to the same.
func TestFailedMergeInstallLeavesVectorUntouched(t *testing.T) {
	files := func(t *testing.T, fs *storage.MemFS) []string {
		t.Helper()
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	untouched := func(t *testing.T, eng *core.Engine, when string) {
		t.Helper()
		if dirty, entries := dvState(eng); dirty || entries != 1 {
			t.Fatalf("%s: dirty=%v with %d vector entries, want clean with 1", when, dirty, entries)
		}
	}

	t.Run("merge", func(t *testing.T) {
		fs := storage.NewMemFS()
		eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), WriteShards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.AddRef(fref(30, 3, 0, 0), 1)
		fCheckpoint(t, eng, 1)
		eng.AddRef(fref(31, 3, 1, 0), 2)
		fCheckpoint(t, eng, 2)
		if err := eng.RelocateBlock(30, 700); err != nil {
			t.Fatal(err)
		}
		fCheckpoint(t, eng, 3)
		untouched(t, eng, "after the checkpoint")
		answers := func() (out [][]core.Owner) {
			for _, blk := range []uint64{30, 31, 700} {
				out = append(out, fQuery(t, eng, blk))
			}
			return out
		}
		before, filesBefore := answers(), files(t, fs)

		failCalls(fs, storage.OpOpen, "merge.")
		if err := eng.Compact(); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("Compact over a failing output open: %v, want the injected error", err)
		}
		fs.SetFailurePlan(storage.FailurePlan{})
		untouched(t, eng, "after the failed install")
		if got := files(t, fs); !reflect.DeepEqual(got, filesBefore) {
			t.Fatalf("failed install left files behind: %v, before %v", got, filesBefore)
		}
		if got := answers(); !reflect.DeepEqual(got, before) {
			t.Fatalf("answers changed across the failed install: %+v, before %+v", got, before)
		}

		failCalls(fs, storage.OpCreate, "commit.")
		if err := eng.Compact(); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("Compact over a failing commit write: %v, want the injected error", err)
		}
		fs.SetFailurePlan(storage.FailurePlan{})
		if st := eng.Stats(); st.Compactions != 1 {
			t.Fatalf("Compactions = %d after the install in memory, want 1", st.Compactions)
		}
		if dirty, entries := dvState(eng); dirty || entries != 0 {
			t.Fatalf("after the failed commit: dirty=%v with %d vector entries, want clean and empty", dirty, entries)
		}
		if got := answers(); !reflect.DeepEqual(got, before) {
			t.Fatalf("answers changed across the merge: %+v, before %+v", got, before)
		}
		if !slices.ContainsFunc(files(t, fs), func(n string) bool { return strings.HasPrefix(n, "dv.") }) {
			t.Fatal("the vector file went before a commit that collects its entry")
		}

		if _, err := eng.Expire(); err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(files(t, fs), func(n string) bool { return strings.HasPrefix(n, "dv.") }) {
			t.Fatal("the commit after the merge left the vector file behind")
		}
		if got := answers(); !reflect.DeepEqual(got, before) {
			t.Fatalf("answers changed across the commit: %+v, before %+v", got, before)
		}
	})

	t.Run("expiry", func(t *testing.T) {
		fs := storage.NewMemFS()
		eng, cat := sealedEnv(t, fs)
		defer eng.Close()
		// Block 1's only record sits in the sealed run snapshot 1 retains.
		if err := eng.RelocateBlock(1, 800); err != nil {
			t.Fatal(err)
		}
		fCheckpoint(t, eng, 5)
		if err := cat.DeleteSnapshot(0, 1); err != nil {
			t.Fatal(err)
		}
		untouched(t, eng, "before the expiry")
		filesBefore := files(t, fs)

		failCalls(fs, storage.OpCreate, "commit.")
		est, err := eng.Expire()
		if !errors.Is(err, storage.ErrInjected) || est.RunsDropped != 0 || est.DVEntriesDropped != 0 {
			t.Fatalf("Expire over a failing commit write = %+v, %v; want the injected error and nothing dropped", est, err)
		}
		fs.SetFailurePlan(storage.FailurePlan{})
		untouched(t, eng, "after the failed expiry")
		if got := files(t, fs); !reflect.DeepEqual(got, filesBefore) {
			t.Fatalf("failed expiry changed the directory: %v, before %v", got, filesBefore)
		}

		est, err = eng.Expire()
		if err != nil || est.RunsDropped == 0 || est.DVEntriesDropped != 1 {
			t.Fatalf("retried Expire = %+v, %v; want runs dropped and the entry collected", est, err)
		}
		if dirty, entries := dvState(eng); dirty || entries != 0 {
			t.Fatalf("after the retry: dirty=%v with %d vector entries, want clean and empty", dirty, entries)
		}
		if owners := fQuery(t, eng, 3); len(owners) != 1 {
			t.Fatalf("retained block 3 lost across the expiry: %+v", owners)
		}
	})
}

// TestRelocateCheckpointCloseMaintainerLockOrder races the four parties
// that take the checkpoint guard — Checkpoint, RelocateBlock, Close and a
// host's maintenance pass (MaintainNow), its merges due — from a common
// start line. A lock-order inversion between them shows as a hang; -race
// covers the rest. Whatever order they ran in, the moved reference answers
// at exactly one block after a reopen.
func TestRelocateCheckpointCloseMaintainerLockOrder(t *testing.T) {
	for round := 0; round < 40; round++ {
		fs := storage.NewMemFS()
		cat := core.NewMemCatalog()
		opts := core.Options{
			VFS: fs, Catalog: cat, WriteShards: 2, Durability: wal.Buffered,
			CompactionPolicy: core.PolicyFullAt{Threshold: 2},
		}
		eng, err := core.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		const src, dst = 8, 4000
		for cp := uint64(1); cp <= 3; cp++ {
			for b := uint64(0); b < 16; b++ {
				eng.AddRef(fref(b, cp, b, 0), cp)
			}
			fCheckpoint(t, eng, cp)
		}
		eng.AddRef(fref(src, 99, 0, 0), 4)

		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, op := range []func(){
			// Errors are not checked: an operation that loses the race to
			// Close runs against a closed engine.
			func() { _ = eng.Checkpoint(4) },
			func() { _ = eng.RelocateBlock(src, dst) },
			func() { _ = eng.Close() },
			func() { _ = eng.MaintainNow() },
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				op()
			}()
		}
		close(start)
		wg.Wait()

		eng2, err := core.Open(opts)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		var holders int
		for _, b := range []uint64{src, dst} {
			for _, o := range fQuery(t, eng2, b) {
				if o.Inode == 99 {
					holders++
				}
			}
		}
		if holders != 1 {
			t.Fatalf("round %d: moved reference answers at %d blocks, want 1", round, holders)
		}
		if err := eng2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
