package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

func walFiles(t *testing.T, vfs storage.VFS) []string {
	t.Helper()
	names, err := vfs.List()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") {
			out = append(out, n)
		}
	}
	return out
}

// TestCheckpointOnlyTouchesNoWAL pins the paper-fidelity guarantee: the
// default durability mode creates no log files and performs no log I/O,
// so figure experiments are byte-identical to the pre-WAL engine.
func TestCheckpointOnlyTouchesNoWAL(t *testing.T) {
	vfs := storage.NewMemFS()
	eng, err := Open(Options{VFS: vfs, Catalog: NewMemCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	for cp := uint64(1); cp <= 3; cp++ {
		for i := uint64(0); i < 50; i++ {
			eng.AddRef(ref(cp*1000+i, i, 0, 0), cp)
		}
		mustCheckpoint(t, eng, cp)
	}
	if err := eng.RelocateBlock(1000, 9999); err != nil {
		t.Fatal(err)
	}
	if files := walFiles(t, vfs); len(files) != 0 {
		t.Fatalf("CheckpointOnly mode created log files: %v", files)
	}
	st := eng.Stats()
	if st.WALAppends != 0 || st.WALBatches != 0 || st.WALReplayed != 0 {
		t.Fatalf("CheckpointOnly mode logged: %+v", st)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointOnlyReplaysAndRetiresStaleWAL reopens a Sync-mode
// database in CheckpointOnly mode: the leftover log tail must still be
// replayed (silently dropping acknowledged references on a configuration
// change would be data loss) and the segments retired at the next
// checkpoint.
func TestCheckpointOnlyReplaysAndRetiresStaleWAL(t *testing.T) {
	vfs := storage.NewMemFS()
	cat := NewMemCatalog()
	eng, err := Open(Options{VFS: vfs, Catalog: cat, Durability: wal.Sync})
	if err != nil {
		t.Fatal(err)
	}
	eng.AddRef(ref(1, 1, 0, 0), 1)
	mustCheckpoint(t, eng, 1)
	eng.AddRef(ref(2, 2, 0, 0), 2) // durable only in the log
	vfs.Crash()

	eng2, err := Open(Options{VFS: vfs, Catalog: cat}) // CheckpointOnly
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Stats().WALReplayed; got != 1 {
		t.Fatalf("replayed %d records, want 1", got)
	}
	if owners := mustQuery(t, eng2, 2); len(owners) != 1 {
		t.Fatalf("logged ref lost on mode downgrade: %+v", owners)
	}
	if files := walFiles(t, vfs); len(files) == 0 {
		t.Fatal("stale segments removed before the checkpoint that covers them")
	}
	mustCheckpoint(t, eng2, 2)
	if files := walFiles(t, vfs); len(files) != 0 {
		t.Fatalf("stale segments not retired at checkpoint: %v", files)
	}
	if owners := mustQuery(t, eng2, 2); len(owners) != 1 {
		t.Fatalf("ref lost after checkpoint: %+v", owners)
	}
}

// TestRelocationDurableAtCheckpoint pins the deletion-vector half of a
// relocation: Checkpoint must persist the DVs hiding the old block's run
// records, or a crash resurrects them next to the transplanted copies.
// (WAL replay cannot re-hide them: it rightly skips relocate records a
// committed checkpoint covers.) Checked in every durability mode — the
// hole predates the WAL.
func TestRelocationDurableAtCheckpoint(t *testing.T) {
	for _, mode := range []wal.Durability{wal.CheckpointOnly, wal.Buffered, wal.Sync} {
		t.Run(mode.String(), func(t *testing.T) {
			vfs := storage.NewMemFS()
			cat := NewMemCatalog()
			open := func() *Engine {
				eng, err := Open(Options{VFS: vfs, Catalog: cat, Durability: mode})
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			eng := open()
			eng.AddRef(ref(10, 1, 0, 0), 1)
			mustCheckpoint(t, eng, 1)
			if err := eng.RelocateBlock(10, 500); err != nil {
				t.Fatal(err)
			}
			mustCheckpoint(t, eng, 2)
			vfs.Crash()

			eng2 := open()
			if owners := mustQuery(t, eng2, 10); len(owners) != 0 {
				t.Fatalf("relocated-away reference resurrected by crash: %+v", owners)
			}
			owners := mustQuery(t, eng2, 500)
			if len(owners) != 1 || !owners[0].Live {
				t.Fatalf("transplanted reference = %+v", owners)
			}
		})
	}
}

// TestPreviousFormatLogTailReplaysAndRetires is the upgrade path end to
// end: a directory whose log tail an earlier binary wrote in segment format
// 5 (the golden files internal/wal keeps) opens, every record of the tail
// replays, new updates are logged next to it in the current format, and the
// first checkpoint retires the old segments. A tail of a retired format —
// version 4's and version 3's golden segments — is refused by name, with
// the binary that replays it, and so is the store
// testdata/v3-store, whose manifest is a legacy MANIFEST, whose runs are
// format 2 and whose log tail is format 3, with both binaries that upgrade
// it in turn; the refused Open changes no file.
func TestPreviousFormatLogTailReplaysAndRetires(t *testing.T) {
	tails := []struct {
		version  string
		replayed uint64 // records of the tail past its checkpoint mark, all tagged later than it
		live     uint64 // a block the tail adds a reference to on line 0 and never removes
		cp       uint64 // a CP past every one the tail tags
		refused  string // what Open's error names, for a retired format
		upgrader string // and the binary it names
	}{
		{"v3", 0, 0, 0, "segment wal-0000000000000001.seg is in format version 3", "commit 0ea923b or earlier"},
		{"v4", 0, 0, 0, "segment wal-0000000000000001.seg is in format version 4", "commit 8d5575c"},
		{"v5", 16, 3<<16 + 5, 13, "", ""},
		{"v3-store", 0, 0, 0, "the manifest in MANIFEST, version 3, is no longer read", "commit 0ea923b if its runs are of format 2, then once with a binary of commit 8d5575c"},
	}
	old := []string{"wal-0000000000000001.seg", "wal-0000000000000002.seg"}
	for _, mode := range []wal.Durability{wal.Buffered, wal.Sync} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, tail := range tails {
				t.Run(tail.version, func(t *testing.T) {
					planted := map[string][]byte{}
					if tail.version == "v3-store" {
						dir := filepath.Join("testdata", "v3-store")
						entries, err := os.ReadDir(dir)
						if err != nil {
							t.Fatal(err)
						}
						for _, ent := range entries {
							if planted[ent.Name()], err = os.ReadFile(filepath.Join(dir, ent.Name())); err != nil {
								t.Fatal(err)
							}
						}
					} else {
						for _, name := range old {
							b, err := os.ReadFile(filepath.Join("..", "wal", "testdata", tail.version+"-"+name))
							if err != nil {
								t.Fatal(err)
							}
							planted[name] = b
						}
					}
					vfs := storage.NewMemFS()
					for name, b := range planted {
						f, err := vfs.Create(name)
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
					eng, err := Open(Options{VFS: vfs, Catalog: NewMemCatalog(), Durability: mode})
					if tail.refused != "" {
						if err == nil {
							eng.Close()
							t.Fatalf("Open accepted a %s tail", tail.version)
						}
						if !strings.Contains(err.Error(), tail.refused) || !strings.Contains(err.Error(), tail.upgrader) {
							t.Fatalf("Open: %v, want the retired format named with the binary that reads it", err)
						}
						names, err := vfs.List()
						if err != nil || len(names) != len(planted) {
							t.Fatalf("after the refused Open the directory lists %v (%v), want the %d files planted", names, err, len(planted))
						}
						for name, want := range planted {
							f, err := vfs.Open(name)
							if err != nil {
								t.Fatal(err)
							}
							got := make([]byte, len(want)+1)
							n, _ := f.ReadAt(got, 0)
							f.Close()
							if !bytes.Equal(got[:n], want) {
								t.Fatalf("the refused Open changed %s", name)
							}
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					if got := eng.Stats().WALReplayed; got != tail.replayed {
						t.Fatalf("replayed %d records of the %s tail, want %d", got, tail.version, tail.replayed)
					}
					if owners := mustQuery(t, eng, tail.live); len(owners) != 1 || !owners[0].Live {
						t.Fatalf("block %d after replay: %+v", tail.live, owners)
					}
					eng.AddRef(ref(950, 1, 0, 0), tail.cp)
					if files := walFiles(t, vfs); len(files) != 3 {
						t.Fatalf("log files before the checkpoint: %v, want the two old segments and the active one", files)
					}
					mustCheckpoint(t, eng, tail.cp)
					for _, name := range walFiles(t, vfs) {
						if name == old[0] || name == old[1] {
							t.Fatalf("%s segment %s survived the first checkpoint", tail.version, name)
						}
					}
					for _, block := range []uint64{tail.live, 950} {
						if owners := mustQuery(t, eng, block); len(owners) != 1 || !owners[0].Live {
							t.Fatalf("block %d after the checkpoint: %+v", block, owners)
						}
					}
				})
			}
		})
	}
}

// TestWALStatsBytesAreDeviceBytes reconciles the log's own byte counter
// with the device: wal.Stats.Bytes is every byte the log handed to the
// device bar the 16-byte segment headers — batch headers and cut marks
// included — so Bytes ÷ Appends is the per-update cost the attribution
// report shows. The buffered gauge counts record bytes only: nothing for an
// empty buffer, nothing for the frame header reserved ahead of the records.
func TestWALStatsBytesAreDeviceBytes(t *testing.T) {
	for _, mode := range []wal.Durability{wal.Buffered, wal.Sync} {
		t.Run(mode.String(), func(t *testing.T) {
			vfs := storage.NewMemFS()
			eng, err := Open(Options{VFS: vfs, Catalog: NewMemCatalog(), Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.wal.BufferedBytes(); got != 0 {
				t.Fatalf("BufferedBytes = %d on a fresh log", got)
			}
			eng.AddRef(ref(1, 1, 0, 0), 1)
			// op + block + inode + offset + cp, line and length elided.
			if got, want := eng.wal.BufferedBytes(), map[wal.Durability]int{wal.Buffered: 5, wal.Sync: 0}[mode]; got != want {
				t.Fatalf("BufferedBytes = %d after one small update, want %d", got, want)
			}
			for cp := uint64(1); cp <= 3; cp++ {
				for i := uint64(0); i < 500; i++ {
					eng.AddRef(ref(cp*1000+i, i, 0, 0), cp)
					if i%3 == 0 {
						eng.RemoveRef(ref(cp*1000+i, i, 0, 0), cp+1)
					}
				}
				mustCheckpoint(t, eng, cp)
				if got := eng.wal.BufferedBytes(); got != 0 {
					t.Fatalf("BufferedBytes = %d right after a checkpoint's cut", got)
				}
			}
			eng.AddRef(ref(9000, 1, 0, 0), 4)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			ws := eng.wal.Stats()
			var device uint64
			for _, src := range eng.IOReport().Sources {
				if src.Source == storage.SrcWAL.String() {
					device = src.WriteBytes
				}
			}
			if headers := ws.Segments * 16; uint64(ws.Bytes)+headers != device {
				t.Fatalf("wal.Stats.Bytes = %d (+ %d of segment headers), device saw %d wal-tagged bytes", ws.Bytes, headers, device)
			}
			if perRecord := float64(ws.Bytes) / float64(ws.Appends); mode == wal.Buffered && perRecord > 9 {
				t.Fatalf("a Buffered log cost %.1f device bytes per update", perRecord)
			}
		})
	}
}
