package backlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/storage"
)

// TestEarlierStoresUpgradeThroughOpen opens each store an earlier binary
// wrote under a legacy MANIFEST (internal/core/testdata/v4manifest-store,
// an enveloped version-4 one with a Buffered log tail, and
// v3manifest-store, a bare-JSON version-3 one; never regenerate them) the
// way an application does. This binary no longer reads either: Open refuses
// the store by the manifest's version, not as damage, naming the binaries
// that upgrade it (internal/core/testdata/upgrade) — one for runs of format
// 2, then the one for the rest — and changes no file.
func TestEarlierStoresUpgradeThroughOpen(t *testing.T) {
	for _, c := range []struct {
		store   string
		version int // of the legacy manifest
	}{
		{"v4manifest-store", 4},
		{"v3manifest-store", 3},
	} {
		t.Run(c.store, func(t *testing.T) {
			dir := filepath.Join("internal", "core", "testdata", c.store)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			vfs := storage.NewMemFS()
			golden := map[string][]byte{}
			for _, ent := range entries {
				b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				golden[ent.Name()] = b
				f, err := vfs.Create(ent.Name())
				if err == nil {
					_, err = f.WriteAt(b, 0)
				}
				if err == nil {
					err = f.Sync()
				}
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			db, err := openVFS(vfs, Config{Durability: DurabilityBuffered})
			if err == nil {
				db.Close()
				t.Fatal("Open accepted a store whose commit is a legacy manifest")
			}
			want := fmt.Sprintf("the manifest in MANIFEST, version %d, is no longer read: open the store once with a binary of commit 0ea923b if its runs are of format 2, then once with a binary of commit 8d5575c", c.version)
			if errors.Is(err, lsm.ErrCorrupt) || errors.Is(err, btree.ErrCorrupt) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Open = %v, want %q", err, want)
			}
			names, err := vfs.List()
			if err != nil || len(names) != len(golden) {
				t.Fatalf("after the refused Open the store lists %v (%v), want its %d files", names, err, len(golden))
			}
			for _, name := range names {
				f, err := vfs.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				b := make([]byte, len(golden[name])+1)
				n, _ := f.ReadAt(b, 0)
				f.Close()
				if !bytes.Equal(b[:n], golden[name]) {
					t.Fatalf("the refused Open changed %s", name)
				}
			}
		})
	}
}
