package backlog

import (
	"errors"
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// TestCatalogCrashWindowAtCheckpoint is the kill-point regression for the
// DB.Checkpoint commit order: the snapshot catalog must be persisted
// BEFORE the engine commit, so a crash between the two can never leave
// reference data claiming the new consistency point while the catalog
// still shows a deleted snapshot (which would resurrect it in query
// masking, unrepairably — WAL replay skips records the manifest CP
// covers).
func TestCatalogCrashWindowAtCheckpoint(t *testing.T) {
	vfs := storage.NewMemFS()
	db, err := openVFS(vfs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	db.AddRef(Ref{Block: 10, Inode: 2, Offset: 0, Line: 0}, 1)
	db.AddRef(Ref{Block: 10, Inode: 2, Offset: 1, Line: 0}, 1)
	if err := db.Catalog().CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	db.RemoveRef(Ref{Block: 10, Inode: 2, Offset: 1, Line: 0}, 2)

	// Mutate the catalog, then kill the checkpoint between its two
	// commits: the catalog save (about one page) succeeds, the engine
	// flush behind it fails.
	if err := db.Catalog().DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	vfs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: vfs.Stats().PageWrites + 1})
	if err := db.Checkpoint(2); err == nil {
		t.Fatal("checkpoint survived the injected kill point")
	}
	vfs.SetFailurePlan(storage.FailurePlan{})
	vfs.Crash()

	db2, err := openVFS(vfs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// The interrupted checkpoint must not have advanced the engine while
	// losing the catalog: with the catalog-first order, the deletion is
	// durable and the reference data is at the old consistency point.
	if got := db2.CP(); got != 1 {
		t.Fatalf("CP = %d after crash, want 1 (engine commit never happened)", got)
	}
	if snaps := db2.Catalog().Snapshots(0); len(snaps) != 0 {
		t.Fatalf("deleted snapshot resurrected after crash: %v", snaps)
	}
	owners, err := db2.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range owners {
		if len(o.Versions) != 0 {
			t.Fatalf("query masks against the deleted snapshot: %+v", o)
		}
		if !o.Live {
			t.Fatalf("non-live owner with no versions survived masking: %+v", o)
		}
	}
	// And the database keeps working: the retried checkpoint commits both.
	db2.AddRef(Ref{Block: 11, Inode: 3, Offset: 0, Line: 0}, 2)
	if err := db2.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if got := db2.CP(); got != 2 {
		t.Fatalf("CP = %d after retry", got)
	}
	// A stale cp is rejected up front, before even the catalog is
	// written.
	before := vfs.Stats()
	if err := db2.Checkpoint(2); !errors.Is(err, ErrStaleCP) {
		t.Fatalf("stale DB.Checkpoint: %v, want ErrStaleCP", err)
	}
	if d := vfs.Stats().Sub(before); d.PageWrites != 0 {
		t.Fatalf("stale DB.Checkpoint wrote %d pages before failing", d.PageWrites)
	}
}

// TestCloseConcurrent is the regression for the unsynchronized closed
// flag: concurrent Close calls (and Close racing DurabilityErr pollers)
// must be race-free, with every call returning cleanly. Run under -race.
func TestCloseConcurrent(t *testing.T) {
	db, err := Open(Config{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	db.AddRef(Ref{Block: 1, Inode: 2, Offset: 0, Line: 0}, 1)
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = db.DurabilityErr()
			if err := db.Close(); err != nil {
				t.Error(err)
			}
			_ = db.DurabilityErr()
		}()
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
