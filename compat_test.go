package backlog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// TestEarlierStoresUpgradeThroughOpen opens each store an earlier binary
// wrote (internal/core/testdata/v4manifest-store, under an enveloped
// version-4 MANIFEST with a Buffered log tail, and v3manifest-store, under a
// bare-JSON version-3 one; never regenerate them) the way an application
// does. Open rewrites nothing; the first commit writes a version-4 manifest
// holding the same topology, as the trailer of the file it writes, and
// removes the legacy one; a reopen agrees on snapshots and answers.
func TestEarlierStoresUpgradeThroughOpen(t *testing.T) {
	for _, c := range []struct {
		store   string
		version int // of the legacy manifest
	}{
		{"v4manifest-store", 4},
		{"v3manifest-store", 3},
	} {
		t.Run(c.store, func(t *testing.T) { upgradeThroughOpen(t, c.store, c.version) })
	}
}

func upgradeThroughOpen(t *testing.T, store string, version int) {
	dir := filepath.Join("internal", "core", "testdata", store)
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
		for blk := uint64(0); blk < 160; blk++ {
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
		t.Fatalf("snapshots after opening the store: %v, want %v", got, wantSnaps)
	}
	if !bytes.Equal(read("MANIFEST"), golden["MANIFEST"]) {
		t.Fatal("Open rewrote the legacy manifest before any commit")
	}
	before := answers(db)

	if err := db.Checkpoint(8); err != nil {
		t.Fatal(err)
	}
	if read("MANIFEST") != nil {
		t.Fatal("the first commit left the legacy manifest behind")
	}
	// The commit is the trailer of the checkpoint's run file — of a commit
	// file, when the checkpoint has no record to write: a version-4
	// manifest, its JSON body inside a checksummed envelope, then a 32-byte
	// footer that ends with the CRC-32C of its 20 bytes before the CRC, the
	// envelope's offset at bytes 16 to 24.
	names, err := vfs.List()
	if err != nil {
		t.Fatal(err)
	}
	var carrier []byte
	for _, n := range names {
		if b := read(n); golden[n] == nil && !strings.HasPrefix(n, "wal-") && len(b) > 32 && string(b[len(b)-32:len(b)-24]) == "BKCOMMIT" {
			carrier = b // the one file written since Open
		}
	}
	if len(carrier) == 0 {
		t.Fatalf("no file carries the first commit: %v", names)
	}
	manifest := carrier[binary.LittleEndian.Uint64(carrier[len(carrier)-16:]) : len(carrier)-32]
	if !bytes.HasPrefix(manifest, []byte("BKMANFST")) {
		t.Fatal("the first commit wrote a manifest without its envelope")
	}
	var old, m struct {
		Version int             `json:"version"`
		CP      uint64          `json:"cp"`
		Catalog json.RawMessage `json:"catalog"`
	}
	legacy := golden["MANIFEST"]
	if err := json.Unmarshal(legacy[bytes.IndexByte(legacy, '{'):], &old); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manifest[bytes.IndexByte(manifest, '{'):], &m); err != nil {
		t.Fatal(err)
	}
	if old.Version != version || m.Version != 4 || m.CP != 8 || !bytes.Equal(m.Catalog, old.Catalog) {
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
