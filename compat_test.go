package backlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// TestV2StoreUpgradesThroughOpen opens the directory the previous binary
// wrote (internal/core/testdata/v3-store: runs of format 2 and of the
// current format, the catalog in a version-3 MANIFEST, a Buffered log tail —
// never regenerate it) the way an application does. Open rewrites nothing;
// the first commit writes a version-4 manifest holding the same topology;
// a reopen agrees on snapshots and answers.
func TestV2StoreUpgradesThroughOpen(t *testing.T) {
	const dir = "internal/core/testdata/v3-store"
	vfs := storage.NewMemFS()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]byte{}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		golden[ent.Name()] = b
		f, err := vfs.Create(ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(b, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	read := func(name string) []byte {
		t.Helper()
		f, err := vfs.Open(name)
		if err != nil {
			return nil
		}
		defer f.Close()
		size, _ := f.Size()
		b := make([]byte, size)
		if _, err := f.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
		return b
	}
	answers := func(db *DB) string {
		t.Helper()
		var b bytes.Buffer
		for blk := uint64(0); blk < 150; blk++ {
			owners, err := db.Query(blk)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%d: %+v\n", blk, owners)
		}
		return b.String()
	}

	cfg := Config{Durability: DurabilityBuffered}
	db, err := openVFS(vfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSnaps := []uint64{1, 2, 3, 4, 5, 6}
	if got := db.Catalog().Snapshots(0); !slices.Equal(got, wantSnaps) {
		t.Fatalf("snapshots after opening the version-3 store: %v, want %v", got, wantSnaps)
	}
	if !bytes.Equal(read("MANIFEST"), golden["MANIFEST"]) {
		t.Fatal("Open rewrote the version-3 manifest before any commit")
	}
	before := answers(db)

	if err := db.Checkpoint(8); err != nil {
		t.Fatal(err)
	}
	// A version-4 manifest is its JSON body inside a checksummed envelope.
	manifest := read("MANIFEST")
	var old, m struct {
		Version int             `json:"version"`
		CP      uint64          `json:"cp"`
		Catalog json.RawMessage `json:"catalog"`
	}
	if err := json.Unmarshal(golden["MANIFEST"], &old); err != nil {
		t.Fatal(err)
	}
	if manifest[0] == '{' {
		t.Fatal("the first commit wrote a manifest without its envelope")
	}
	if err := json.Unmarshal(manifest[bytes.IndexByte(manifest, '{'):], &m); err != nil {
		t.Fatal(err)
	}
	if old.Version != 3 || m.Version != 4 || m.CP != 8 || !bytes.Equal(m.Catalog, old.Catalog) {
		t.Fatalf("first commit wrote manifest version %d, CP %d, catalog %s; want 4, 8 and the version-%d manifest's %s", m.Version, m.CP, m.Catalog, old.Version, old.Catalog)
	}
	if got := answers(db); got != before {
		t.Fatal("the upgrading checkpoint changed query results")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = openVFS(vfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Catalog().Snapshots(0); !slices.Equal(got, wantSnaps) {
		t.Fatalf("snapshots after the reopen: %v, want %v", got, wantSnaps)
	}
	if got := answers(db); got != before {
		t.Fatal("reopening the upgraded store changed query results")
	}
}
