package core

import (
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
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
	if d := wrote("Checkpoint", func() error { return eng.Checkpoint(1) }); d.Syncs != 2 || d.Renames != 1 {
		t.Fatalf("a checkpoint of one run after a catalog change: %+v, want one run fsync, one manifest fsync, one rename", d)
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
	if d := wrote("Expire after a change", expire); d.Syncs != 1 || d.Renames != 1 || d.FilesCreated != 1 {
		t.Fatalf("Expire after a change: %+v, want one manifest commit", d)
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
	if d := wrote("Close after a change", eng.Close); d.Syncs != 1 || d.Renames != 1 || d.FilesCreated != 1 {
		t.Fatalf("Close after a change: %+v, want one manifest commit", d)
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
