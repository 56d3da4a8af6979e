// Frozen-write-store checkpoint tests. (Back-to-back checkpoints with
// injected flush failures under concurrent load are
// TestStateMachineConcurrent's "checkpoint" row.)
package core_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// runGate holds every run-file Create from the moment it is installed until
// release is closed, keeping a checkpoint in its lock-free flush phase so
// tests can deterministically exercise the engine while the write stores
// are frozen. The first held Create closes entered, which tells the test
// the freeze has completed and the flush has begun.
type runGate struct {
	entered, release chan struct{}
	once             sync.Once
}

// gateRunCreates installs a runGate's hook as the plan of fs.
func gateRunCreates(fs *storage.MemFS) *runGate {
	g := &runGate{entered: make(chan struct{}), release: make(chan struct{})}
	fs.SetFailurePlan(storage.FailurePlan{Hook: g.hook})
	return g
}

func (g *runGate) hook(c storage.Call) error {
	if c.Op == storage.OpCreate && strings.HasSuffix(c.Name, ".run") {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return nil
}

type freezeEnv struct {
	fs  *storage.MemFS
	cat *core.MemCatalog
	eng *core.Engine
}

func newFreezeEnv(t *testing.T, opts core.Options) *freezeEnv {
	t.Helper()
	fs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	opts.VFS, opts.Catalog = fs, cat
	eng, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &freezeEnv{fs: fs, cat: cat, eng: eng}
}

func fref(block, inode, offset, line uint64) core.Ref {
	return core.Ref{Block: block, Inode: inode, Offset: offset, Line: line, Length: 1}
}

func fQuery(t *testing.T, e *core.Engine, block uint64) []core.Owner {
	t.Helper()
	owners, err := e.Query(block)
	if err != nil {
		t.Fatal(err)
	}
	return owners
}

// relocateAsync issues RelocateBlock from its own goroutine — while a
// checkpoint flush is gated the call queues behind it — and checks that it
// is still waiting a moment later.
func relocateAsync(t *testing.T, e *core.Engine, oldBlock, newBlock uint64) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.RelocateBlock(oldBlock, newBlock) }()
	select {
	case err := <-done:
		t.Fatalf("RelocateBlock finished during the checkpoint's flush: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

func fCheckpoint(t *testing.T, e *core.Engine, cp uint64) {
	t.Helper()
	if err := e.Checkpoint(cp); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointStaleCPRejected covers the replay-filter guard: a CP that
// does not exceed the committed one must be rejected without touching the
// write stores or the manifest.
func TestCheckpointStaleCPRejected(t *testing.T) {
	env := newFreezeEnv(t, core.Options{})
	if err := env.eng.Checkpoint(0); !errors.Is(err, core.ErrStaleCP) {
		t.Fatalf("Checkpoint(0) on a fresh database: %v, want ErrStaleCP", err)
	}
	env.eng.AddRef(fref(1, 2, 0, 0), 3)
	fCheckpoint(t, env.eng, 3)
	before := env.fs.Stats()
	for _, stale := range []uint64{0, 2, 3} {
		env.eng.AddRef(fref(10+stale, 2, stale, 0), 4)
		if err := env.eng.Checkpoint(stale); !errors.Is(err, core.ErrStaleCP) {
			t.Fatalf("Checkpoint(%d) after committing 3: %v, want ErrStaleCP", stale, err)
		}
	}
	if n := env.fs.Stats().Sub(before).Calls; n != 0 {
		t.Fatalf("rejected checkpoints made %d mutating calls", n)
	}
	if got := env.eng.CP(); got != 3 {
		t.Fatalf("CP rolled to %d by rejected checkpoints", got)
	}
	// The rejected checkpoints froze nothing: the buffered records are
	// still queryable and flush with the next valid CP.
	if got := env.eng.WSLen(); got != 3 {
		t.Fatalf("WSLen = %d after rejected checkpoints, want 3", got)
	}
	fCheckpoint(t, env.eng, 4)
	if got := env.eng.WSLen(); got != 0 {
		t.Fatalf("WSLen = %d after valid checkpoint", got)
	}
	for _, stale := range []uint64{0, 2, 3} {
		if owners := fQuery(t, env.eng, 10+stale); len(owners) != 1 || !owners[0].Live {
			t.Fatalf("record buffered across a rejected checkpoint lost: %+v", owners)
		}
	}
	if st := env.eng.Stats(); st.Checkpoints != 2 {
		t.Fatalf("Checkpoints = %d, want 2", st.Checkpoints)
	}
}

// TestUpdatesAndQueriesDuringCheckpointFlush holds a checkpoint in its
// lock-free flush phase and verifies the tentpole contract: updates for
// the next CP proceed into fresh trees, queries read active ∪ frozen, a
// RemoveRef whose matching AddRef froze cancels through the join instead
// of pruning in place, and a second Checkpoint serializes behind the
// in-flight one.
func TestUpdatesAndQueriesDuringCheckpointFlush(t *testing.T) {
	reg := obs.NewRegistry()
	env := newFreezeEnv(t, core.Options{WriteShards: 4, Metrics: reg})
	eng := env.eng
	for b := uint64(1); b <= 8; b++ {
		eng.AddRef(fref(b, 2, b, 0), 1)
	}
	g := gateRunCreates(env.fs)
	cp1 := make(chan error, 1)
	go func() { cp1 <- eng.Checkpoint(1) }()
	<-g.entered // freeze done, flush blocked on its first run file

	// Frozen records answer queries mid-flush.
	if owners := fQuery(t, eng, 3); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("frozen record invisible during flush: %+v", owners)
	}
	// Updates tagged cp 2 flow into the fresh active trees.
	eng.AddRef(fref(100, 9, 0, 0), 2)
	if owners := fQuery(t, eng, 100); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("active record invisible during flush: %+v", owners)
	}
	// Removing a frozen reference cannot prune in place: it must insert a
	// To record, and the pair cancels in the join.
	eng.RemoveRef(fref(4, 2, 4, 0), 1)
	if owners := fQuery(t, eng, 4); len(owners) != 0 {
		t.Fatalf("frozen AddRef + active RemoveRef did not cancel: %+v", owners)
	}
	if st := eng.Stats(); st.PrunedRemoves != 0 {
		t.Fatalf("PrunedRemoves = %d; pruning reached into a frozen tree", st.PrunedRemoves)
	}
	// A second checkpoint must wait for the in-flight one.
	cp2 := make(chan error, 1)
	go func() { cp2 <- eng.Checkpoint(2) }()
	select {
	case err := <-cp2:
		t.Fatalf("second checkpoint finished during the first one's flush: %v", err)
	default:
	}

	close(g.release)
	if err := <-cp1; err != nil {
		t.Fatal(err)
	}
	if err := <-cp2; err != nil {
		t.Fatal(err)
	}
	if got := eng.CP(); got != 2 {
		t.Fatalf("CP = %d after both checkpoints", got)
	}
	if got := eng.WSLen(); got != 0 {
		t.Fatalf("WSLen = %d after both checkpoints", got)
	}
	// Post-install state: flushed records in runs, cancellation held.
	if owners := fQuery(t, eng, 3); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("record lost after frozen flush: %+v", owners)
	}
	if owners := fQuery(t, eng, 4); len(owners) != 0 {
		t.Fatalf("cancelled pair resurrected after flush: %+v", owners)
	}
	if owners := fQuery(t, eng, 100); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("during-flush record lost: %+v", owners)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"backlog_checkpoint_freeze_ns", "backlog_checkpoint_flush_ns", "backlog_checkpoint_install_ns",
	} {
		if h, _ := snap.Histogram(name); h.Count != 2 || h.Sum == 0 {
			t.Errorf("%s: count %d, sum %d after two checkpoints", name, h.Count, h.Sum)
		}
	}

	// Both ends of the cancelled pair reached the read store — the From in
	// the first checkpoint's runs, the To in the second's — which is the one
	// way a from == to pair gets there. A merge joins it away like a query
	// does, writing neither end and no override in its place.
	records := func(table string) uint64 { return eng.DB().Table(table).TotalRecords() }
	if from, to := records(core.TableFrom), records(core.TableTo); from != 9 || to != 1 {
		t.Fatalf("before the merge: %d From and %d To records in runs, want 9 and 1", from, to)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if from, to, comb := records(core.TableFrom), records(core.TableTo), records(core.TableCombined); from != 8 || to != 0 || comb != 0 {
		t.Fatalf("after the merge: %d From, %d To, %d Combined records, want the 8 live references alone", from, to, comb)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := core.Open(core.Options{VFS: env.fs, Catalog: env.cat})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if owners := fQuery(t, eng2, 4); len(owners) != 0 {
		t.Fatalf("cancelled pair resurrected by the merge: %+v", owners)
	}
	if owners := fQuery(t, eng2, 3); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("record lost across the merge: %+v", owners)
	}
}

// TestRelocateDuringCheckpointFlush relocates a block whose records are
// mid-flush in the frozen trees: the relocation waits for the flush (the
// old block keeps answering), then the old block goes dark, the new block
// answers queries, and the state survives the next checkpoint, a
// crash-reopen and compaction.
func TestRelocateDuringCheckpointFlush(t *testing.T) {
	env := newFreezeEnv(t, core.Options{WriteShards: 4})
	eng := env.eng
	const oldBlock, newBlock = 5, 909
	eng.AddRef(fref(oldBlock, 3, 0, 0), 1)
	eng.AddRef(fref(oldBlock, 3, 1, 0), 1)
	eng.AddRef(fref(7, 4, 0, 0), 1) // bystander

	g := gateRunCreates(env.fs)
	done := make(chan error, 1)
	go func() { done <- eng.Checkpoint(1) }()
	<-g.entered

	relocated := relocateAsync(t, eng, oldBlock, newBlock)
	if owners := fQuery(t, eng, oldBlock); len(owners) != 2 {
		t.Fatalf("old block has %d owners during flush, want 2 (relocation queued): %+v", len(owners), owners)
	}
	if owners := fQuery(t, eng, newBlock); len(owners) != 0 {
		t.Fatalf("new block answers during flush: %+v", owners)
	}

	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-relocated; err != nil {
		t.Fatal(err)
	}
	// Post-install: the frozen records landed in runs, and the relocation
	// that ran behind the install hid them through the deletion vector.
	if owners := fQuery(t, eng, oldBlock); len(owners) != 0 {
		t.Fatalf("old block resurrected after install: %+v", owners)
	}
	if owners := fQuery(t, eng, newBlock); len(owners) != 2 {
		t.Fatalf("new block lost records after install: %+v", owners)
	}
	if owners := fQuery(t, eng, 7); len(owners) != 1 {
		t.Fatalf("bystander block wrong after install: %+v", owners)
	}
	// The next checkpoint persists the deletion vector together with the
	// re-keyed records; after a crash the state must hold.
	fCheckpoint(t, eng, 2)
	env.fs.Crash()
	eng2, err := core.Open(core.Options{VFS: env.fs, Catalog: env.cat, WriteShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if owners := fQuery(t, eng2, oldBlock); len(owners) != 0 {
		t.Fatalf("old block resurrected after crash: %+v", owners)
	}
	if owners := fQuery(t, eng2, newBlock); len(owners) != 2 {
		t.Fatalf("new block lost records after crash: %+v", owners)
	}
	if err := eng2.Compact(); err != nil {
		t.Fatal(err)
	}
	if owners := fQuery(t, eng2, oldBlock); len(owners) != 0 {
		t.Fatalf("old block resurrected after compaction: %+v", owners)
	}
	if owners := fQuery(t, eng2, newBlock); len(owners) != 2 {
		t.Fatalf("new block lost records after compaction: %+v", owners)
	}
}

// failCheckpointWrites returns a Hook that fails every write to a
// checkpoint's run file, after next (when set) has seen the call: a flush
// failure wherever a checkpoint's pages and its commit go, however few
// pages that is.
func failCheckpointWrites(next func(storage.Call) error) func(storage.Call) error {
	return func(c storage.Call) error {
		if next != nil {
			if err := next(c); err != nil {
				return err
			}
		}
		if c.Op == storage.OpWrite && strings.HasPrefix(c.Name, "cp.") {
			return storage.ErrInjected
		}
		return nil
	}
}

// TestCheckpointFlushFailureRecovers injects a write failure into the
// lock-free flush and verifies the documented contract: on error every
// frozen record is merged back into the write stores (recoverable), and a
// retry succeeds.
func TestCheckpointFlushFailureRecovers(t *testing.T) {
	env := newFreezeEnv(t, core.Options{WriteShards: 4})
	eng := env.eng
	const n = 64
	for i := uint64(0); i < n; i++ {
		eng.AddRef(fref(i, 2, i, 0), 1)
	}
	env.fs.SetFailurePlan(storage.FailurePlan{Hook: failCheckpointWrites(nil)})
	if err := eng.Checkpoint(1); err == nil {
		t.Fatal("checkpoint succeeded under an injected flush failure")
	}
	env.fs.SetFailurePlan(storage.FailurePlan{})
	if got := eng.WSLen(); got != n {
		t.Fatalf("WSLen = %d after failed flush, want %d (frozen records restored)", got, n)
	}
	if got := eng.CP(); got != 0 {
		t.Fatalf("CP = %d after failed flush", got)
	}
	for i := uint64(0); i < n; i++ {
		if owners := fQuery(t, eng, i); len(owners) != 1 || !owners[0].Live {
			t.Fatalf("block %d lost by failed flush: %+v", i, owners)
		}
	}
	// Retry succeeds and flushes everything.
	fCheckpoint(t, eng, 1)
	if got := eng.WSLen(); got != 0 {
		t.Fatalf("WSLen = %d after retry", got)
	}
	for i := uint64(0); i < n; i++ {
		if owners := fQuery(t, eng, i); len(owners) != 1 || !owners[0].Live {
			t.Fatalf("block %d lost by retry: %+v", i, owners)
		}
	}
	if st := eng.Stats(); st.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1 (failed attempt must not count)", st.Checkpoints)
	}
}

// TestRelocateThenFlushFailure queues a relocation behind a flush that
// then fails: it runs against the restored write stores, and neither the
// restore nor the retry may resurrect the relocated-away records.
func TestRelocateThenFlushFailure(t *testing.T) {
	env := newFreezeEnv(t, core.Options{WriteShards: 4})
	eng := env.eng
	const oldBlock, newBlock = 11, 480
	eng.AddRef(fref(oldBlock, 3, 0, 0), 1)
	eng.AddRef(fref(12, 5, 0, 0), 1)

	g := gateRunCreates(env.fs)
	done := make(chan error, 1)
	go func() { done <- eng.Checkpoint(1) }()
	<-g.entered
	relocated := relocateAsync(t, eng, oldBlock, newBlock)
	if owners := fQuery(t, eng, oldBlock); len(owners) != 1 {
		t.Fatalf("old block wrong while the relocation is queued: %+v", owners)
	}
	// Fail the flush: the gated Creates proceed, and the writes behind
	// them (and the manifest commit they carry) fail.
	env.fs.SetFailurePlan(storage.FailurePlan{Hook: failCheckpointWrites(g.hook)})
	close(g.release)
	if err := <-done; err == nil {
		t.Fatal("checkpoint succeeded under an injected flush failure")
	}
	env.fs.SetFailurePlan(storage.FailurePlan{})
	if err := <-relocated; err != nil {
		t.Fatal(err)
	}

	if owners := fQuery(t, eng, oldBlock); len(owners) != 0 {
		t.Fatalf("relocated-away record resurrected by restore: %+v", owners)
	}
	if owners := fQuery(t, eng, newBlock); len(owners) != 1 {
		t.Fatalf("relocated record lost by restore: %+v", owners)
	}
	if owners := fQuery(t, eng, 12); len(owners) != 1 {
		t.Fatalf("bystander lost by restore: %+v", owners)
	}
	fCheckpoint(t, eng, 1)
	if owners := fQuery(t, eng, oldBlock); len(owners) != 0 {
		t.Fatalf("relocated-away record resurrected by retry: %+v", owners)
	}
	if owners := fQuery(t, eng, newBlock); len(owners) != 1 {
		t.Fatalf("relocated record lost by retry: %+v", owners)
	}
}

// TestWALCutKeepsFlushConcurrentAppends is the WAL half of the tentpole:
// in Sync mode, an update acknowledged while a checkpoint flush runs must
// survive a crash even though the checkpoint that was in flight commits
// and retires the log behind it.
func TestWALCutKeepsFlushConcurrentAppends(t *testing.T) {
	fs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: fs, Catalog: cat, Durability: wal.Sync, WriteShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.AddRef(fref(1, 2, 0, 0), 1)

	g := gateRunCreates(fs)
	done := make(chan error, 1)
	go func() { done <- eng.Checkpoint(1) }()
	<-g.entered
	// Acknowledged mid-flush, tagged for the next CP.
	eng.AddRef(fref(50, 7, 0, 0), 2)
	if err := eng.WALErr(); err != nil {
		t.Fatalf("append during flush noted a durability error: %v", err)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	fs.Crash()
	eng2, err := core.Open(core.Options{VFS: fs, Catalog: cat, Durability: wal.Sync, WriteShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Stats().WALReplayed; got != 1 {
		t.Fatalf("replayed %d records, want 1 (the mid-flush append)", got)
	}
	if owners := fQuery(t, eng2, 50); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("mid-flush acknowledged update lost across crash: %+v", owners)
	}
	if owners := fQuery(t, eng2, 1); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("checkpointed record lost across crash: %+v", owners)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringCheckpointFlush: Close must serialize behind an
// in-flight flush instead of closing the engine under it.
func TestCloseDuringCheckpointFlush(t *testing.T) {
	env := newFreezeEnv(t, core.Options{WriteShards: 2})
	eng := env.eng
	eng.AddRef(fref(1, 2, 0, 0), 1)
	g := gateRunCreates(env.fs)
	cpDone := make(chan error, 1)
	go func() { cpDone <- eng.Checkpoint(1) }()
	<-g.entered
	closeDone := make(chan error, 1)
	go func() { closeDone <- eng.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close finished during the flush: %v", err)
	default:
	}
	close(g.release)
	if err := <-cpDone; err != nil {
		t.Fatal(err)
	}
	if err := <-closeDone; err != nil {
		t.Fatal(err)
	}
}

// TestRetriedCheckpointDoesNotDoubleApplyWAL covers the retry corner of
// the cut protocol: an update logged while Checkpoint(n) was flushing is
// tagged n+1 but — if that flush fails and the caller retries
// Checkpoint(n) — gets frozen and committed AT CP n by the retry. If the
// crash then beats the log retirement, replay must not re-apply it on
// top of the runs that already hold it (the CP-tag filter alone would:
// n+1 > n). Recovery drops everything before the last cut whose CP the
// manifest covers.
func TestRetriedCheckpointDoesNotDoubleApplyWAL(t *testing.T) {
	fs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	open := func() *core.Engine {
		eng, err := core.Open(core.Options{VFS: fs, Catalog: cat, Durability: wal.Sync, WriteShards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	eng.AddRef(fref(1, 2, 0, 0), 1)

	// Checkpoint(1) freezes, then fails mid-flush; b lands during the
	// flush, logged past the cut, tagged 2.
	g := gateRunCreates(fs)
	done := make(chan error, 1)
	go func() { done <- eng.Checkpoint(1) }()
	<-g.entered
	bRef := fref(50, 7, 0, 0)
	eng.AddRef(bRef, 2)
	fs.SetFailurePlan(storage.FailurePlan{Hook: failCheckpointWrites(g.hook)})
	close(g.release)
	if err := <-done; err == nil {
		t.Fatal("checkpoint survived the injected flush failure")
	}
	fs.SetFailurePlan(storage.FailurePlan{})

	// The retry freezes b too (it was merged back... it was active all
	// along) and commits it at CP 1. Failing the segments' Remove keeps the
	// one holding b's record on disk, as a crash beating the retirement
	// would.
	failCalls(fs, storage.OpRemove, "wal-")
	fCheckpoint(t, eng, 1)
	fs.SetFailurePlan(storage.FailurePlan{})

	fs.Crash()
	eng2 := open()
	// b is durable in the runs; its surviving WAL record must NOT have
	// replayed into the write stores again.
	eng2.RemoveRef(bRef, 2)
	fCheckpoint(t, eng2, 2)
	if owners := fQuery(t, eng2, 50); len(owners) != 0 {
		t.Fatalf("phantom owner after remove — the WAL record double-applied: %+v", owners)
	}
	if owners := fQuery(t, eng2, 1); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("pre-freeze record lost: %+v", owners)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionDeferredWhileDVDirty: compaction must not physically
// purge records hidden by UNPERSISTED deletion-vector entries — their
// re-keyed replacements are still volatile in the write stores, so a
// crash after the purge would lose the references beyond what WAL replay
// can reconstruct. The partition compacts normally once a checkpoint has
// persisted vector and replacements together.
func TestCompactionDeferredWhileDVDirty(t *testing.T) {
	env := newFreezeEnv(t, core.Options{})
	eng := env.eng
	for i := uint64(0); i < 8; i++ {
		eng.AddRef(fref(100+i, 2, i, 0), 1)
	}
	fCheckpoint(t, eng, 1)
	eng.AddRef(fref(200, 3, 0, 0), 2)
	fCheckpoint(t, eng, 2) // two runs now exist to merge

	if err := eng.RelocateBlock(100, 900); err != nil {
		t.Fatal(err)
	}
	if !eng.DB().Table(core.TableFrom).DVDirty() {
		t.Fatal("relocation did not dirty the deletion vector")
	}
	runsBefore := eng.RunCount()
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := eng.RunCount(); got != runsBefore {
		t.Fatalf("compaction ran on a dirty deletion vector (%d -> %d runs)", runsBefore, got)
	}
	if st := eng.Stats(); st.Compactions != 0 {
		t.Fatalf("Compactions = %d, want 0 (deferred)", st.Compactions)
	}

	// After the checkpoint persists the vector and the re-keyed records,
	// compaction proceeds and the relocation holds.
	fCheckpoint(t, eng, 3)
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Compactions == 0 {
		t.Fatal("compaction still deferred after the checkpoint")
	}
	if owners := fQuery(t, eng, 100); len(owners) != 0 {
		t.Fatalf("relocated-away block answers after compaction: %+v", owners)
	}
	if owners := fQuery(t, eng, 900); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("relocation target wrong after compaction: %+v", owners)
	}
}

// TestRelocateRunRecordsDuringFlushCrashWindows relocates a block whose
// records live in committed runs while an unrelated checkpoint flush is
// in flight. The relocation queues behind that checkpoint, so the
// deletion-vector entries it adds arise after the install and are NOT
// persisted by it (their re-keyed partners flush only with the next
// checkpoint): a crash right after the in-flight checkpoint loses the
// relocation atomically (old state), and a crash after the next
// checkpoint keeps it atomically (new state) — never the halfway state
// where the old records are hidden durably while the new ones were never
// flushed.
func TestRelocateRunRecordsDuringFlushCrashWindows(t *testing.T) {
	for _, crashEarly := range []bool{true, false} {
		env := newFreezeEnv(t, core.Options{WriteShards: 2})
		eng := env.eng
		eng.AddRef(fref(30, 3, 0, 0), 1)
		fCheckpoint(t, eng, 1) // block 30's record is in a run
		eng.AddRef(fref(40, 4, 0, 0), 2)

		g := gateRunCreates(env.fs)
		done := make(chan error, 1)
		go func() { done <- eng.Checkpoint(2) }()
		<-g.entered
		relocated := relocateAsync(t, eng, 30, 700)
		if old := fQuery(t, eng, 30); len(old) != 1 {
			t.Fatalf("old block wrong while the relocation is queued: %+v", old)
		}
		close(g.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := <-relocated; err != nil {
			t.Fatal(err)
		}
		if !crashEarly {
			fCheckpoint(t, eng, 3) // persists the vector + re-keyed records
		}
		env.fs.Crash()
		eng2, err := core.Open(core.Options{VFS: env.fs, Catalog: env.cat, WriteShards: 2})
		if err != nil {
			t.Fatal(err)
		}
		old := fQuery(t, eng2, 30)
		moved := fQuery(t, eng2, 700)
		if crashEarly {
			// The relocation was not yet durable: it must be lost whole.
			if len(old) != 1 || len(moved) != 0 {
				t.Fatalf("crash before the covering checkpoint left a half-relocation: old=%+v new=%+v", old, moved)
			}
		} else {
			if len(old) != 0 || len(moved) != 1 {
				t.Fatalf("crash after the covering checkpoint lost the relocation: old=%+v new=%+v", old, moved)
			}
		}
	}
}

// TestNoIOUnderTheExclusiveLock parks, in turn, the file I/O a commit or a
// cut makes — a checkpoint's next log segment, the sync of the run file
// that carries a checkpoint's commit, the commit file of the commit Compact
// ends with — and the open of a merge's output that a maintenance pass's install
// makes, and while each is parked a Buffered AddRef and a Query must both
// return: a checkpoint holds the structural lock exclusively only to swap
// pointers, no commit does I/O under it, and a merge opens its outputs
// before it takes it.
func TestNoIOUnderTheExclusiveLock(t *testing.T) {
	for _, c := range []struct {
		name string
		call storage.Op
		file string
		op   func(*core.Engine) error
	}{
		{"checkpoint-segment", storage.OpCreate, "wal-", func(e *core.Engine) error { return e.Checkpoint(3) }},
		{"checkpoint-manifest", storage.OpSync, "cp.", func(e *core.Engine) error { return e.Checkpoint(3) }},
		{"merge-manifest", storage.OpCreate, "commit.", func(e *core.Engine) error { return e.Compact() }},
		{"merge-swap", storage.OpOpen, "merge.", func(e *core.Engine) error { return e.MaintainNow() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := newFreezeEnv(t, core.Options{Durability: wal.Buffered, Partitions: 1,
				CompactionPolicy: core.PolicyFullAt{Threshold: 1}})
			eng := env.eng
			defer eng.Close()
			for cp := uint64(1); cp <= 2; cp++ {
				for b := uint64(1); b <= 8; b++ {
					eng.AddRef(fref(b, cp, b, 0), cp)
				}
				fCheckpoint(t, eng, cp)
			}
			eng.AddRef(fref(50, 5, 0, 0), 3)

			parked, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			env.fs.SetFailurePlan(storage.FailurePlan{Hook: func(call storage.Call) error {
				if call.Op == c.call && strings.HasPrefix(call.Name, c.file) {
					once.Do(func() {
						close(parked)
						<-release
					})
				}
				return nil
			}})
			done := make(chan error, 1)
			go func() { done <- c.op(eng) }()
			select {
			case <-parked:
			case err := <-done:
				t.Fatalf("%s finished without %v of %s*: %v", c.name, c.call, c.file, err)
			}

			served := make(chan []core.Owner, 1)
			go func() {
				eng.AddRef(fref(60, 6, 0, 0), 3)
				owners, err := eng.Query(60)
				if err != nil {
					t.Error(err)
				}
				served <- owners
			}()
			select {
			case owners := <-served:
				if len(owners) != 1 || !owners[0].Live {
					t.Errorf("query beside the parked %s*: %+v", c.file, owners)
				}
			case <-time.After(5 * time.Second):
				t.Errorf("AddRef and Query did not return while %s* was parked: I/O under the exclusive lock", c.file)
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			for _, b := range []uint64{3, 50, 60} {
				if owners := fQuery(t, eng, b); len(owners) == 0 {
					t.Fatalf("block %d lost after the parked %s", b, c.name)
				}
			}
		})
	}
}
