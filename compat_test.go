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
// wrote (internal/core/testdata/v2-store: a version-2 MANIFEST, the catalog
// in a file of its own, a Buffered log tail — never regenerate it) the way
// an application does. The CATALOG file is honoured and left alone until a
// commit has moved it; the first commit writes a version-3 manifest holding
// the same topology and removes the file; a reopen agrees on snapshots and
// answers.
func TestV2StoreUpgradesThroughOpen(t *testing.T) {
	const dir = "internal/core/testdata/v2-store"
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
		t.Fatalf("snapshots after opening the version-2 store: %v, want %v (its CATALOG file)", got, wantSnaps)
	}
	if !bytes.Equal(read("CATALOG"), golden["CATALOG"]) || !bytes.Equal(read("MANIFEST"), golden["MANIFEST"]) {
		t.Fatal("Open rewrote the version-2 store before any commit")
	}
	before := answers(db)

	if err := db.Checkpoint(7); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Version int             `json:"version"`
		CP      uint64          `json:"cp"`
		Catalog json.RawMessage `json:"catalog"`
	}
	if err := json.Unmarshal(read("MANIFEST"), &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 || m.CP != 7 || !bytes.Equal(m.Catalog, golden["CATALOG"]) {
		t.Fatalf("first commit wrote manifest version %d, CP %d, catalog %s; want 3, 7 and the old file's %s", m.Version, m.CP, m.Catalog, golden["CATALOG"])
	}
	if read("CATALOG") != nil {
		t.Fatal("CATALOG survived the commit that moved it into the manifest")
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
