package core

import (
	"errors"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// TestCheckpointFailureLeavesOldStateRecoverable injects a write failure
// partway into a checkpoint flush, then crashes: reopening must recover
// the previous CP exactly, and replaying the lost operations must converge
// to the intended state.
func TestCheckpointFailureLeavesOldStateRecoverable(t *testing.T) {
	fs := storage.NewMemFS()
	cat := NewMemCatalog()
	eng, err := Open(Options{VFS: fs, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	eng.AddRef(ref(1, 1, 0, 0), 1)
	mustCheckpoint(t, eng, 1)

	// CP 2's ops, with a failure bomb armed a few pages ahead.
	journal := []Ref{ref(2, 2, 0, 0), ref(3, 3, 0, 0), ref(4, 4, 0, 0)}
	for _, r := range journal {
		eng.AddRef(r, 2)
	}
	st := fs.Stats()
	fs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: st.PageWrites + 2, TornWrite: true})
	if err := eng.Checkpoint(2); err == nil {
		t.Fatal("checkpoint succeeded despite injected failure")
	} else if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("unexpected error: %v", err)
	}
	fs.SetFailurePlan(storage.FailurePlan{})
	fs.Crash()

	// Recover: the database must be exactly at CP 1.
	eng2, err := Open(Options{VFS: fs, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if eng2.CP() != 1 {
		t.Fatalf("recovered CP = %d, want 1", eng2.CP())
	}
	if got := mustQuery(t, eng2, 1); len(got) != 1 {
		t.Fatalf("pre-crash data lost: %+v", got)
	}
	for _, r := range journal {
		if got := mustQuery(t, eng2, r.Block); len(got) != 0 {
			t.Fatalf("partial checkpoint visible for block %d: %+v", r.Block, got)
		}
	}
	// Journal replay (the file system re-drives its log).
	for _, r := range journal {
		eng2.AddRef(r, 2)
	}
	mustCheckpoint(t, eng2, 2)
	for _, r := range journal {
		if got := mustQuery(t, eng2, r.Block); len(got) != 1 {
			t.Fatalf("replayed block %d missing: %+v", r.Block, got)
		}
	}
}

// TestCompactionFailureIsAtomic injects failures at many points inside a
// compaction; whichever point it dies at, reopening must see either the
// fully-old or the fully-new state, never a mixture.
func TestCompactionFailureIsAtomic(t *testing.T) {
	build := func() (*storage.MemFS, *MemCatalog) {
		fs := storage.NewMemFS()
		cat := NewMemCatalog()
		eng, err := Open(Options{VFS: fs, Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		for cp := uint64(1); cp <= 6; cp++ {
			eng.AddRef(ref(cp*10, cp, 0, 0), cp)
			if cp > 2 {
				eng.RemoveRef(ref((cp-2)*10, cp-2, 0, 0), cp)
			}
			mustCheckpoint(t, eng, cp)
			if err := cat.CreateSnapshot(0, cp); err != nil {
				t.Fatal(err)
			}
		}
		return fs, cat
	}

	// Reference answers from an untouched copy.
	refFS, refCat := build()
	refEng, err := Open(Options{VFS: refFS, Catalog: refCat})
	if err != nil {
		t.Fatal(err)
	}
	wantOwners := map[uint64]int{}
	for b := uint64(10); b <= 60; b += 10 {
		wantOwners[b] = len(mustQuery(t, refEng, b))
	}

	for bomb := int64(1); bomb <= 40; bomb += 3 {
		fs, cat := build()
		eng, err := Open(Options{VFS: fs, Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		st := fs.Stats()
		fs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: st.PageWrites + bomb})
		errCompact := eng.Compact()
		fs.SetFailurePlan(storage.FailurePlan{})
		fs.Crash()

		eng2, err := Open(Options{VFS: fs, Catalog: cat})
		if err != nil {
			t.Fatalf("bomb %d: reopen: %v", bomb, err)
		}
		for b, want := range wantOwners {
			got := mustQuery(t, eng2, b)
			if len(got) != want {
				t.Fatalf("bomb %d (compact err %v): block %d has %d owners, want %d",
					bomb, errCompact, b, len(got), want)
			}
		}
	}
}
