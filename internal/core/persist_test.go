package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// TestCatalogRidesTheManifest: every manifest commit carries the catalog as
// it is at that moment, a reopen finds it, and Expire writes only when no
// commit has carried the last change; a commit carries the bytes
// the topology was published with, so the catalog is serialized again only
// after it changed. Close commits a change no commit has carried, and a
// crash of an engine nobody closed loses it. No catalog file exists.
func TestCatalogRidesTheManifest(t *testing.T) {
	fs := storage.NewMemFS()
	open := func() (*Engine, *MemCatalog) {
		t.Helper()
		cat := NewMemCatalog()
		eng, err := Open(Options{VFS: fs, Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		return eng, cat
	}
	wrote := func(what string, fn func() error) storage.Stats {
		t.Helper()
		before := fs.Stats()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return fs.Stats().Sub(before)
	}

	eng, cat := open()
	expire := func() error { _, err := eng.Expire(); return err }
	eng.AddRef(Ref{Block: 1, Inode: 2, Length: 1}, 1)
	if err := cat.CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	if d := wrote("Checkpoint", func() error { return eng.Checkpoint(1) }); d.Syncs != 1 || d.FilesCreated != 1 {
		t.Fatalf("a checkpoint of one run after a catalog change: %+v, want one run file, whose fsync is the commit's", d)
	}
	if d := wrote("Expire after the checkpoint", expire); d.BytesWritten != 0 || d.FilesCreated != 0 {
		t.Fatalf("Expire wrote a catalog the checkpoint had carried: %+v", d)
	}
	topo := cat.Topology()
	eng.AddRef(Ref{Block: 2, Inode: 2, Length: 1}, 2)
	if err := eng.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if cat.Topology() != topo || &eng.DB().Section()[0] != &topo.data[0] {
		t.Fatal("an unchanged catalog was serialized again")
	}

	if err := cat.CreateSnapshot(0, 2); err != nil {
		t.Fatal(err)
	}
	if d := wrote("Expire after a change", expire); d.Syncs != 1 || d.FilesCreated != 1 {
		t.Fatalf("Expire after a change: %+v, want one commit file", d)
	}
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	// Lost: nothing commits before the crash, and nobody closed the engine.
	fs.Crash()
	eng, cat = open()
	if got := cat.Snapshots(0); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("snapshots after the crash: %v, want [1 2]", got)
	}

	// Kept: Close commits it.
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	if d := wrote("Close after a change", eng.Close); d.Syncs != 1 || d.FilesCreated != 1 {
		t.Fatalf("Close after a change: %+v, want one commit file", d)
	}
	fs.Crash()
	eng, cat = open()
	if got := cat.Snapshots(0); !slices.Equal(got, []uint64{2}) {
		t.Fatalf("snapshots after a clean close: %v, want [2]", got)
	}
	if d := wrote("Close with nothing to commit", eng.Close); d.BytesWritten != 0 || d.FilesCreated != 0 {
		t.Fatalf("Close wrote a catalog a commit had carried: %+v", d)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "CATALOG") {
			t.Fatalf("a catalog file exists: %v", names)
		}
	}
}

// carriesCommit reports whether name is a file a commit rides: a
// checkpoint's run file or a commit file.
func carriesCommit(name string) bool {
	return strings.HasPrefix(name, "cp.") || strings.HasPrefix(name, "commit.")
}

// TestCommitSyncsTheDirectoryAfterItsFile: a Checkpoint's commit and a
// Compact's commit each make the entry of the file that carries them
// durable before they return: the call after that file's sync is the
// commit's one SyncDir, and no file is removed before it.
func TestCommitSyncsTheDirectoryAfterItsFile(t *testing.T) {
	env := newTestEnv(t, Options{})
	defer env.eng.Close()
	// A checkpoint creates its files from one goroutine per table.
	var (
		mu    sync.Mutex
		calls []storage.Call
	)
	env.fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		mu.Lock()
		calls = append(calls, c)
		mu.Unlock()
		return nil
	}})
	for cp, commit := range []func() error{
		func() error { return env.eng.Checkpoint(1) },
		func() error { return env.eng.Checkpoint(2) },
		env.eng.Compact,
	} {
		env.eng.AddRef(ref(uint64(cp), 1, 0, 0), uint64(cp+1))
		calls = calls[:0]
		if err := commit(); err != nil {
			t.Fatal(err)
		}
		dirSyncs := 0
		for i, c := range calls {
			switch c.Op {
			case storage.OpSyncDir:
				dirSyncs++
				prev := i - 1 // the call before, its file's Close aside
				for prev >= 0 && calls[prev].Op == storage.OpClose {
					prev--
				}
				if prev < 0 || calls[prev].Op != storage.OpSync || !carriesCommit(calls[prev].Name) {
					t.Fatalf("commit %d: its SyncDir does not follow the sync of the file that carries it: %v", cp, calls[:i+1])
				}
			case storage.OpRemove:
				if dirSyncs == 0 {
					t.Fatalf("commit %d removed %s before its SyncDir", cp, c.Name)
				}
			}
		}
		if dirSyncs != 1 {
			t.Fatalf("commit %d synced the directory %d times, want once", cp, dirSyncs)
		}
	}
	if st := env.eng.Stats(); st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want the Compact to have merged", st.Compactions)
	}
}

// TestUnsyncedCommitKeepsItsRuns: a commit whose directory sync fails after
// the sync of the file that carries it has committed. Checkpoint and
// Compact install it and return nil, WALErr and Close report the failure, a
// checkpoint that commits in full clears it, and a reopen after a crash
// finds every run the manifest names and every reference. Until a
// checkpoint commits in full, the log keeps its segments, for a crash that
// loses the commit's entry.
func TestUnsyncedCommitKeepsItsRuns(t *testing.T) {
	env := newTestEnv(t, Options{Durability: wal.Buffered})
	segments := func() []string {
		t.Helper()
		names, err := env.fs.List()
		if err != nil {
			t.Fatal(err)
		}
		return slices.DeleteFunc(names, func(n string) bool { return !strings.HasPrefix(n, "wal-") })
	}
	var (
		mu     sync.Mutex
		synced bool
	)
	failSync := func(c storage.Call) error {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case c.Op == storage.OpSync && carriesCommit(c.Name):
			synced = true
		case c.Op == storage.OpSyncDir && synced:
			synced = false
			return storage.ErrInjected
		}
		return nil
	}
	unsynced := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, lsm.ErrUnsynced) || !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("%s: got %v, want the injected directory-sync failure", what, err)
		}
	}
	for cp := uint64(1); cp <= 3; cp++ {
		env.eng.AddRef(ref(cp, 1, 0, 0), cp)
		plan := storage.FailurePlan{}
		if cp != 2 {
			plan.Hook = failSync
		}
		env.fs.SetFailurePlan(plan)
		before := segments()
		mustCheckpoint(t, env.eng, cp)
		after := segments()
		for _, n := range before {
			if _, kept := slices.BinarySearch(after, n); kept == (cp == 2) {
				t.Fatalf("checkpoint %d: segment %s kept %v, segments %v -> %v", cp, n, kept, before, after)
			}
		}
		if cp == 2 {
			if err := env.eng.WALErr(); err != nil {
				t.Fatalf("a checkpoint that synced left WALErr %v", err)
			}
			continue
		}
		unsynced("WALErr after Checkpoint", env.eng.WALErr())
		if owners := mustQuery(t, env.eng, cp); len(owners) != 1 {
			t.Fatalf("block %d: owners %+v after the unsynced checkpoint", cp, owners)
		}
	}
	files, err := env.fs.List()
	if err != nil {
		t.Fatal(err)
	}
	mustCompact(t, env.eng)
	if st := env.eng.Stats(); st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want the Compact to have merged", st.Compactions)
	}
	// The merge's inputs are named by the previous commit: they stay.
	after, err := env.fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range files {
		if _, ok := slices.BinarySearch(after, n); !ok {
			t.Fatalf("the unsynced Compact removed %s", n)
		}
	}
	unsynced("Close", env.eng.Close())

	env.fs.SetFailurePlan(storage.FailurePlan{})
	env.fs.Crash()
	eng, err := Open(Options{VFS: env.fs, Catalog: env.cat})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng.Close()
	for b := uint64(1); b <= 3; b++ {
		if owners := mustQuery(t, eng, b); len(owners) != 1 || !owners[0].Live {
			t.Fatalf("block %d after reopen: owners %+v", b, owners)
		}
	}
}
