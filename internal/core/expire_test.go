// Drop-based expiry tests: the no-read reclaim contract, the safety
// deferrals, crash windows around the manifest commit and the expiry-vs-
// compaction I/O gap. (A crash at every I/O of an expiry is
// TestStateMachine's "expire-drops-a-run" row; Expire racing the full
// concurrent workload is TestStateMachineConcurrent's "expire" row.) They
// live in package core_test to share the gated-VFS harness with
// freeze_test.go.
package core_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/storage"
)

// sealedEnv builds a RetainLive database with two sealed Combined runs in
// partition 0 and one live reference:
//
//	run A, window [1, 2]: block 1's interval [1, 2), retained by snapshot v1
//	run B, window [3, 4]: block 3's interval [3, 4), retained by snapshot v3
//	From run:             block 2, live since CP 1
//
// Deleting snapshot v1 moves the reclaim horizon to 3, making exactly
// run A droppable by the next commit.
func sealedEnv(t *testing.T, vfs storage.VFS) (*core.Engine, *core.MemCatalog) {
	t.Helper()
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: vfs, Catalog: cat, Retention: core.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	epoch := func(snap, block, inode uint64) {
		if err := cat.CreateSnapshot(0, snap); err != nil {
			t.Fatal(err)
		}
		eng.AddRef(fref(block, inode, 0, 0), snap)
		if block == 1 {
			eng.AddRef(fref(2, 2, 0, 0), snap) // the long-lived reference
		}
		fCheckpoint(t, eng, snap)
		eng.RemoveRef(fref(block, inode, 0, 0), snap+1)
		fCheckpoint(t, eng, snap+1)
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	epoch(1, 1, 1)
	epoch(3, 3, 3)
	if got := len(sealedRuns(eng)); got != 2 {
		t.Fatalf("sealedEnv built %d sealed runs, want 2: %+v", got, eng.RunInfos())
	}
	return eng, cat
}

// sealedRuns returns the Combined runs eligible for expiry, oldest window
// first (RunInfos orders runs by age within a partition).
func sealedRuns(eng *core.Engine) []lsm.RunInfo {
	var out []lsm.RunInfo
	for _, ri := range eng.RunInfos() {
		if ri.Table == core.TableCombined && ri.Level >= 1 && ri.CPWindowKnown && ri.Overrides == 0 {
			out = append(out, ri)
		}
	}
	return out
}

// TestExpireDropsRunsWithoutReadingData is the headline contract: once
// the only snapshot covering a sealed run's window is deleted, Expire
// removes the run in a single manifest edit — zero bytes of run data
// read — while every record still reachable keeps answering queries.
func TestExpireDropsRunsWithoutReadingData(t *testing.T) {
	fs := storage.NewMemFS()
	eng, cat := sealedEnv(t, fs)
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}

	before := fs.Stats()
	est, err := eng.Expire()
	if err != nil {
		t.Fatal(err)
	}
	delta := fs.Stats().Sub(before)
	if est.Deferred {
		t.Fatal("expiry deferred on an idle engine")
	}
	if est.Horizon != 3 {
		t.Fatalf("Horizon = %d, want 3 (the surviving snapshot)", est.Horizon)
	}
	if est.RunsDropped != 1 || est.RecordsDropped != 1 {
		t.Fatalf("dropped (%d runs, %d records), want (1, 1)", est.RunsDropped, est.RecordsDropped)
	}
	if delta.BytesRead != 0 {
		t.Fatalf("expiry read %d bytes of run data; the drop must be a pure manifest edit", delta.BytesRead)
	}
	if delta.FilesRemoved == 0 {
		t.Fatal("no view pinned the dropped run, so its file must be deleted in the same pass")
	}

	// Reachability after the drop: the expired interval is gone, the
	// retained interval and the live reference are untouched.
	if owners := fQuery(t, eng, 1); len(owners) != 0 {
		t.Fatalf("expired block 1 still answers: %+v", owners)
	}
	if owners := fQuery(t, eng, 3); len(owners) != 1 || owners[0].Live {
		t.Fatalf("retained block 3 wrong after expiry: %+v", owners)
	}
	if owners := fQuery(t, eng, 2); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("live block 2 wrong after expiry: %+v", owners)
	}
	st := eng.Stats()
	if st.Expiries != 1 || st.RunsExpired != 1 || st.RecordsExpired != 1 {
		t.Fatalf("expiry counters wrong: %+v", st)
	}

	// A second pass finds nothing and must not rewrite the manifest.
	before = fs.Stats()
	est, err = eng.Expire()
	if err != nil {
		t.Fatal(err)
	}
	if est.RunsDropped != 0 {
		t.Fatalf("second pass dropped %d runs", est.RunsDropped)
	}
	if w := fs.Stats().Sub(before).BytesWritten; w != 0 {
		t.Fatalf("no-op expiry wrote %d bytes", w)
	}
	if got := eng.Stats().Expiries; got != 1 {
		t.Fatalf("Expiries = %d after a no-op pass, want 1", got)
	}

	// The drop is durable: a reopen sees one sealed run and the same
	// query results.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := core.Open(core.Options{VFS: fs, Catalog: cat, Retention: core.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if got := len(sealedRuns(eng2)); got != 1 {
		t.Fatalf("%d sealed runs after reopen, want 1", got)
	}
	if owners := fQuery(t, eng2, 1); len(owners) != 0 {
		t.Fatalf("expired block 1 resurrected by reopen: %+v", owners)
	}
	if owners := fQuery(t, eng2, 3); len(owners) != 1 {
		t.Fatalf("retained block 3 lost by reopen: %+v", owners)
	}
}

// TestExpireDefersUntilSafe covers the two unsafe moments for a drop. An
// Expire issued while a checkpoint holds frozen stores mid-flush waits for
// that checkpoint to commit — no commit overlaps a flush — and then applies
// retention; the checkpoint's own install has dropped the run by then. A
// dirty deletion vector, whose re-keyed partner records are not yet
// durable, defers the drop (without error) until the checkpoint that
// persists the vector drops the run in its install.
func TestExpireDefersUntilSafe(t *testing.T) {
	fs := storage.NewMemFS()
	eng, cat := sealedEnv(t, fs)
	defer eng.Close()
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}

	// Mid-flush: freeze a checkpoint on its first run file, then expire.
	eng.AddRef(fref(9, 9, 0, 0), 5)
	g := gateRunCreates(fs)
	done := make(chan error, 1)
	go func() { done <- eng.Checkpoint(5) }()
	<-g.entered
	type expired struct {
		st  core.ExpireStats
		err error
	}
	expiring := make(chan expired, 1)
	go func() {
		st, err := eng.Expire()
		expiring <- expired{st, err}
	}()
	select {
	case x := <-expiring:
		t.Fatalf("Expire returned during the checkpoint's flush: %+v, %v", x.st, x.err)
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	x := <-expiring
	if x.err != nil {
		t.Fatal(x.err)
	}
	if x.st.Deferred || x.st.Horizon == 0 || x.st.RunsDropped != 0 {
		t.Fatalf("expiry issued mid-flush = %+v, want retention applied after the checkpoint, which left it nothing", x.st)
	}
	if got, st := len(sealedRuns(eng)), eng.Stats(); got != 1 || st.Expiries != 1 || st.RunsExpired != 1 {
		t.Fatalf("after the held checkpoint: %d sealed runs, %+v; want its install to have dropped run A", got, st)
	}

	// Dirty deletion vector: relocating block 3 masks its record in run B
	// while the re-keyed copy is still volatile, and deleting snapshot v3
	// makes run B droppable.
	if err := eng.RelocateBlock(3, 700); err != nil {
		t.Fatal(err)
	}
	if err := cat.DeleteSnapshot(0, 3); err != nil {
		t.Fatal(err)
	}
	est, err := eng.Expire()
	if err != nil {
		t.Fatal(err)
	}
	if !est.Deferred || est.RunsDropped != 0 {
		t.Fatalf("expiry on a dirty deletion vector = %+v, want a deferral", est)
	}
	if got := eng.Stats().Expiries; got != 1 {
		t.Fatalf("a deferred Expire counted as an expiry: %d", got)
	}

	// The checkpoint persists vector and copy together, and its install
	// drops run B, collecting the entry no surviving run needs.
	fCheckpoint(t, eng, 6)
	comb := eng.DB().Table(core.TableCombined)
	if got, st := len(sealedRuns(eng)), eng.Stats(); got != 0 || st.Expiries != 2 || comb.DVDirty() || comb.DVLen() != 0 {
		t.Fatalf("after the covering checkpoint: %d sealed runs, %+v, vector dirty=%v len=%d; want run B dropped and its entry collected",
			got, st, comb.DVDirty(), comb.DVLen())
	}
	if owners := fQuery(t, eng, 3); len(owners) != 0 {
		t.Fatalf("relocated-away block resurrected: %+v", owners)
	}
	for _, block := range []uint64{2, 9} {
		if owners := fQuery(t, eng, block); len(owners) != 1 || !owners[0].Live {
			t.Fatalf("live block %d after expiry: %+v", block, owners)
		}
	}
}

// TestExpireCrashAfterCommitCollectsOrphan: if the crash beats the run-
// file deletion, the committed manifest is the truth — reopening must
// collect the orphaned file, and the expired records must not resurrect.
func TestExpireCrashAfterCommitCollectsOrphan(t *testing.T) {
	fs := storage.NewMemFS()
	eng, cat := sealedEnv(t, fs)
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	doomed := sealedRuns(eng)[0].Name

	// A crash that lands after the expiry's manifest commit but before the
	// deferred file deletion.
	failCalls(fs, storage.OpRemove, doomed)
	est, err := eng.Expire()
	fs.SetFailurePlan(storage.FailurePlan{})
	if err != nil || est.RunsDropped != 1 {
		t.Fatalf("Expire = %+v, %v; want 1 run dropped", est, err)
	}
	if _, err := fs.Open(doomed); err != nil {
		t.Fatalf("test harness broken: the injected failure did not keep the run file: %v", err)
	}

	fs.Crash()
	eng2, err := core.Open(core.Options{VFS: fs, Catalog: cat, Retention: core.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	// The orphan is gone, and nothing else leaked.
	if err := noOrphans(fs, eng2); err != nil {
		t.Fatal(err)
	}
	if owners := fQuery(t, eng2, 1); len(owners) != 0 {
		t.Fatalf("expired records resurrected after crash: %+v", owners)
	}
	if owners := fQuery(t, eng2, 3); len(owners) != 1 {
		t.Fatalf("retained block 3 lost: %+v", owners)
	}
}

// TestExpireCrashBeforeCommitKeepsState: a failure before the manifest
// lands must leave the pre-expiry state intact — both sealed runs load
// after the crash, and so does the snapshot whose deletion no commit
// carried; deleting it again, a retry completes the drop.
func TestExpireCrashBeforeCommitKeepsState(t *testing.T) {
	fs := storage.NewMemFS()
	eng, cat := sealedEnv(t, fs)
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}

	fs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: fs.Stats().PageWrites})
	if _, err := eng.Expire(); err == nil {
		t.Fatal("expiry survived the injected manifest-write failure")
	}
	fs.SetFailurePlan(storage.FailurePlan{})
	if got := eng.Stats().Expiries; got != 0 {
		t.Fatalf("failed pass counted as an expiry: %d", got)
	}

	fs.Crash()
	eng2, err := core.Open(core.Options{VFS: fs, Catalog: cat, Retention: core.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if got := len(sealedRuns(eng2)); got != 2 {
		t.Fatalf("%d sealed runs after failed expiry + crash, want 2 (unchanged)", got)
	}
	if owners := fQuery(t, eng2, 3); len(owners) != 1 {
		t.Fatalf("retained block 3 lost: %+v", owners)
	}
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	est, err := eng2.Expire()
	if err != nil {
		t.Fatal(err)
	}
	if est.RunsDropped != 1 {
		t.Fatalf("retry dropped %d runs, want 1", est.RunsDropped)
	}
}

// buildExpirable writes epochs of references that each live for exactly
// one checkpoint, retained by a per-epoch snapshot, and seals each epoch
// into its own Combined run via tiered compaction on a RetainLive engine.
// Deleting the first epochs' snapshots then makes their runs reclaimable
// two ways: Expire (drop) or, reopened under RetainAll, Compact
// (merge-and-purge).
func buildExpirable(t *testing.T, vfs storage.VFS, epochs, perEpoch, blocks int) (*core.Engine, *core.MemCatalog) {
	t.Helper()
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: vfs, Catalog: cat, Retention: core.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	cp := uint64(1)
	for e := 0; e < epochs; e++ {
		if err := cat.CreateSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perEpoch; i++ {
			eng.AddRef(core.Ref{Block: uint64(i % blocks), Inode: uint64(e + 1), Offset: uint64(i), Length: 1}, cp)
		}
		fCheckpoint(t, eng, cp)
		for i := 0; i < perEpoch; i++ {
			eng.RemoveRef(core.Ref{Block: uint64(i % blocks), Inode: uint64(e + 1), Offset: uint64(i), Length: 1}, cp+1)
		}
		fCheckpoint(t, eng, cp+1)
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
		cp += 2
	}
	return eng, cat
}

// TestExpireVsCompactReclaimIO pins the economics: reclaiming the same
// deleted snapshots must cost expiry at least 10x less I/O than the
// compaction path, which reads and rewrites every surviving record. The
// epochs hold enough references that their records, not the framing of the
// pages they sit in, are what compaction moves. Both engines must agree on
// what remains.
func TestExpireVsCompactReclaimIO(t *testing.T) {
	const (
		epochs   = 8
		perEpoch = 1024
		blocks   = 64
	)
	fsE := storage.NewMemFS()
	engE, catE := buildExpirable(t, fsE, epochs, perEpoch, blocks)
	defer engE.Close()
	fsC := storage.NewMemFS()
	engC, catC := buildExpirable(t, fsC, epochs, perEpoch, blocks)
	// Under RetainAll no commit drops a run, and Compact merges sealed
	// runs like any other.
	if err := engC.Close(); err != nil {
		t.Fatal(err)
	}
	engC, err := core.Open(core.Options{VFS: fsC, Catalog: catC})
	if err != nil {
		t.Fatal(err)
	}
	defer engC.Close()

	// Delete every snapshot but the last epoch's on both.
	for e := 0; e < epochs-1; e++ {
		if err := catE.DeleteSnapshot(0, uint64(2*e+1)); err != nil {
			t.Fatal(err)
		}
		if err := catC.DeleteSnapshot(0, uint64(2*e+1)); err != nil {
			t.Fatal(err)
		}
	}

	beforeE := fsE.Stats()
	est, err := engE.Expire()
	if err != nil {
		t.Fatal(err)
	}
	dE := fsE.Stats().Sub(beforeE)
	ioE := dE.BytesRead + dE.BytesWritten
	if est.RunsDropped != epochs-1 || est.RecordsDropped != uint64((epochs-1)*perEpoch) {
		t.Fatalf("expiry dropped (%d runs, %d records), want (%d, %d)",
			est.RunsDropped, est.RecordsDropped, epochs-1, (epochs-1)*perEpoch)
	}

	beforeC := fsC.Stats()
	if err := engC.Compact(); err != nil {
		t.Fatal(err)
	}
	dC := fsC.Stats().Sub(beforeC)
	ioC := dC.BytesRead + dC.BytesWritten

	if ioE == 0 {
		t.Fatal("expiry reported zero I/O; the manifest commit must be visible to the meter")
	}
	if ioC < 10*ioE {
		t.Fatalf("compaction reclaim I/O = %d bytes, expiry = %d bytes; want >= 10x gap", ioC, ioE)
	}
	if dE.BytesRead != 0 {
		t.Fatalf("expiry read %d bytes", dE.BytesRead)
	}

	// Both paths converge to the same reachable state.
	for b := uint64(0); b < blocks; b++ {
		oe := fQuery(t, engE, b)
		oc := fQuery(t, engC, b)
		if len(oe) != len(oc) {
			t.Fatalf("block %d: expiry sees %d owners, compaction %d", b, len(oe), len(oc))
		}
		for i := range oe {
			if fmt.Sprintf("%+v", oe[i]) != fmt.Sprintf("%+v", oc[i]) {
				t.Fatalf("block %d owner %d: expiry %+v, compaction %+v", b, i, oe[i], oc[i])
			}
		}
		if len(oe) != perEpoch/blocks {
			t.Fatalf("block %d: %d owners after reclaim, want %d (last epoch only)", b, len(oe), perEpoch/blocks)
		}
	}
}

// TestRetainLiveExpiresAtTheCheckpoint: retention is a rule of the
// commit, not a pass. A checkpoint after a snapshot deletion drops the run it freed in its own install —
// its one commit, with no Expire call — and the run's removal is
// attributed to expiry, not to the checkpoint.
func TestRetainLiveExpiresAtTheCheckpoint(t *testing.T) {
	fs := storage.NewMemFS()
	eng, cat := sealedEnv(t, fs)
	defer eng.Close()
	doomed := sealedRuns(eng)[0]
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	before, io := fs.Stats(), eng.IOReport().Sources
	fCheckpoint(t, eng, 5)
	if d := fs.Stats().Sub(before); d.FilesCreated != 1 || d.Syncs != 1 {
		t.Fatalf("the checkpoint created %d files and synced %d, want its run file alone, which carries the commit", d.FilesCreated, d.Syncs)
	}
	after := eng.IOReport().Sources
	if n := after[storage.SrcExpiry].Removes - io[storage.SrcExpiry].Removes; n != 1 {
		t.Fatalf("expiry removed %d files, want run A's", n)
	}
	if n := after[storage.SrcCheckpoint].Removes - io[storage.SrcCheckpoint].Removes; n != 0 {
		t.Fatalf("the checkpoint removed %d files, want 0: an expired run is expiry's", n)
	}
	left := sealedRuns(eng)
	if len(left) != 1 || left[0].Name == doomed.Name {
		t.Fatalf("sealed runs after the checkpoint: %+v, want run B alone", left)
	}
	if st := eng.Stats(); st.Expiries != 1 || st.RunsExpired != 1 || st.RecordsExpired != 1 {
		t.Fatalf("expiry counters after the checkpoint: %+v", st)
	}
	if owners := fQuery(t, eng, 1); len(owners) != 0 {
		t.Fatalf("expired block 1 still answers: %+v", owners)
	}
}

// TestCompactIsTieredUnderRetainLive: under RetainLive, Compact leaves
// sealed runs where they are — re-merging them would fold their windows
// into one that ends at the newest record, which the reclaim horizon never
// passes — so a following Expire can still drop them.
func TestCompactIsTieredUnderRetainLive(t *testing.T) {
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: storage.NewMemFS(), Catalog: cat, Retention: core.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.AddRef(fref(9, 9, 0, 0), 1) // lives throughout
	for _, cp := range []uint64{1, 3} {
		if err := cat.CreateSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
		eng.AddRef(fref(cp, cp, 0, 0), cp)
		fCheckpoint(t, eng, cp)
		eng.RemoveRef(fref(cp, cp, 0, 0), cp+1)
		fCheckpoint(t, eng, cp+1)
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	sealed := sealedRuns(eng)
	if len(sealed) != 2 {
		t.Fatalf("built %d sealed runs, want 2: %+v", len(sealed), eng.RunInfos())
	}

	// Something to merge: two more flushes on top of the From run.
	for cp := uint64(5); cp <= 6; cp++ {
		eng.AddRef(fref(cp, cp, 0, 0), cp)
		fCheckpoint(t, eng, cp)
	}
	before := eng.Stats().Compactions
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Compactions != before+1 {
		t.Fatal("Compact merged nothing")
	}
	after := sealedRuns(eng)
	if len(after) != 2 || after[0].Name != sealed[0].Name || after[1].Name != sealed[1].Name {
		t.Fatalf("Compact rewrote sealed runs\n before: %+v\n after:  %+v", sealed, after)
	}

	for _, cp := range []uint64{1, 3} {
		if err := cat.DeleteSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
	}
	est, err := eng.Expire()
	if err != nil {
		t.Fatal(err)
	}
	if est.RunsDropped != 2 || est.Horizon != core.Infinity {
		t.Fatalf("Expire = %+v, want both sealed runs dropped below an Infinity horizon", est)
	}
	if left := sealedRuns(eng); len(left) != 0 {
		t.Fatalf("sealed runs survive expiry: %+v", left)
	}
	if owners := fQuery(t, eng, 9); len(owners) != 1 || !owners[0].Live {
		t.Fatalf("live block 9 wrong after expiry: %+v", owners)
	}
}
