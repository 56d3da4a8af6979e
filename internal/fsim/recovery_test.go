package fsim

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// journalingTracker wraps the engine with an operation journal, playing
// the role of the file system's NVRAM/journal from Section 5.4: after a
// crash, ops since the last consistency point are replayed to rebuild the
// write stores.
type journalingTracker struct {
	eng     *core.Engine
	pending []journalEntry
}

type journalEntry struct {
	ref core.Ref
	cp  uint64
	add bool
}

func (j *journalingTracker) AddRef(r core.Ref, cp uint64) {
	j.pending = append(j.pending, journalEntry{ref: r, cp: cp, add: true})
	j.eng.AddRef(r, cp)
}

func (j *journalingTracker) RemoveRef(r core.Ref, cp uint64) {
	j.pending = append(j.pending, journalEntry{ref: r, cp: cp, add: false})
	j.eng.RemoveRef(r, cp)
}

func (j *journalingTracker) Checkpoint(cp uint64) error {
	if err := j.eng.Checkpoint(cp); err != nil {
		return err
	}
	j.pending = j.pending[:0] // journal truncation at CP
	return nil
}

// replay re-drives the journaled ops into a freshly recovered engine.
func (j *journalingTracker) replay(eng *core.Engine) {
	for _, e := range j.pending {
		if e.add {
			eng.AddRef(e.ref, e.cp)
		} else {
			eng.RemoveRef(e.ref, e.cp)
		}
	}
	j.eng = eng
}

// TestJournalReplayEndToEnd runs a random fsim workload, crashes the
// storage mid-CP, recovers the engine, replays the journal, and verifies
// the database against a full tree walk — the complete Section 5.4
// recovery story.
func TestJournalReplayEndToEnd(t *testing.T) {
	vfs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: vfs, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	jt := &journalingTracker{eng: eng}
	fs := New(Config{Tracker: jt, Catalog: cat, DedupRate: 0.10, Seed: 21})
	rng := rand.New(rand.NewSource(55))

	var inos []uint64
	churn := func(n int) {
		for i := 0; i < n; i++ {
			switch {
			case rng.Intn(3) == 0 || len(inos) == 0:
				ino, err := fs.CreateFile(0)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.WriteFile(0, ino, 0, 1+rng.Intn(5)); err != nil {
					t.Fatal(err)
				}
				inos = append(inos, ino)
			case rng.Intn(2) == 0:
				ino := inos[rng.Intn(len(inos))]
				ln, err := fs.FileLen(0, ino)
				if err != nil || ln == 0 {
					continue
				}
				if err := fs.WriteFile(0, ino, uint64(rng.Intn(int(ln))), 1); err != nil {
					t.Fatal(err)
				}
			default:
				i := rng.Intn(len(inos))
				if err := fs.DeleteFile(0, inos[i]); err != nil {
					t.Fatal(err)
				}
				inos = append(inos[:i], inos[i+1:]...)
			}
		}
	}

	// A few committed CPs with a snapshot in the middle.
	for cp := 0; cp < 5; cp++ {
		churn(20)
		if cp == 2 {
			if _, err := fs.TakeSnapshot(0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	// Mid-CP ops that will be lost by the crash but survive in the
	// journal.
	churn(15)

	// Crash: engine state on disk reverts to the last durable CP.
	vfs.Crash()
	eng2, err := core.Open(core.Options{VFS: vfs, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the journal into the recovered engine; fsim's in-memory tree
	// plays the role of the journaled file system state.
	jt.replay(eng2)

	// The recovered + replayed database matches the full tree walk.
	if err := fs.VerifyBackrefs(eng2); err != nil {
		t.Fatal(err)
	}

	// And the system keeps working: another CP, compaction, verify again.
	if _, err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := fs.VerifyBackrefs(eng2); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailRecoveryViaFailurePlan cuts the final WAL record mid-page
// with MemFS failure injection — a torn sector write whose prefix reached
// the platter — and verifies that recovery keeps every record before the
// tear and drops the unacknowledged one.
func TestTornTailRecoveryViaFailurePlan(t *testing.T) {
	vfs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	open := func() *core.Engine {
		eng, err := core.Open(core.Options{VFS: vfs, Catalog: cat, Durability: wal.Sync})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	eng.AddRef(core.Ref{Block: 1, Inode: 1, Length: 1}, 1)
	if err := eng.Checkpoint(1); err != nil {
		t.Fatal(err)
	}

	// Append records until the active segment ends so close to a page
	// boundary that the next frame must straddle it — 9 bytes at least: a
	// 5-byte header and a block update that spells its inode and offset,
	// while each survivor's frame, continuing its predecessor's file, takes
	// 7 — then arm the torn write there with a one-page budget: the frame's
	// first few bytes land durably and the rest is lost.
	segSize := func() int64 {
		names, err := vfs.List()
		if err != nil {
			t.Fatal(err)
		}
		var size int64
		for _, name := range names { // sorted: the active segment is the last one
			if strings.HasPrefix(name, "wal-") {
				f, err := vfs.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				size, _ = f.Size()
				f.Close()
			}
		}
		return size
	}
	survivors := 0
	for ; segSize()%storage.PageSize <= storage.PageSize-9; survivors++ {
		if survivors > 5000 {
			t.Fatal("no frame boundary near a page boundary; frame-size drift?")
		}
		eng.AddRef(core.Ref{Block: uint64(100 + survivors), Inode: 7, Offset: uint64(survivors), Length: 1}, 2)
	}
	if err := eng.WALErr(); err != nil {
		t.Fatalf("premature WAL error: %v", err)
	}
	vfs.SetFailurePlan(storage.FailurePlan{
		FailAfterPageWrites: vfs.Stats().PageWrites + 1,
		TornWrite:           true,
		TornWriteDurable:    true,
	})
	eng.AddRef(core.Ref{Block: 999, Inode: 9, Length: 1}, 2)
	if err := eng.WALErr(); err == nil {
		t.Fatal("torn append did not surface a durability error")
	}
	vfs.SetFailurePlan(storage.FailurePlan{})
	vfs.Crash()

	eng2 := open()
	if got := eng2.Stats().WALReplayed; got != uint64(survivors) {
		t.Fatalf("replayed %d records, want %d", got, survivors)
	}
	for i := 0; i < survivors; i++ {
		owners := mustQueryFsim(t, eng2, uint64(100+i))
		if len(owners) != 1 || !owners[0].Live {
			t.Fatalf("block %d lost: %+v", 100+i, owners)
		}
	}
	if owners := mustQueryFsim(t, eng2, 999); len(owners) != 0 {
		t.Fatalf("torn record resurrected: %+v", owners)
	}
	// The recovered engine keeps working: checkpoint the replayed tail and
	// query through the read store.
	if err := eng2.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if owners := mustQueryFsim(t, eng2, 100); len(owners) != 1 {
		t.Fatalf("post-recovery checkpoint lost block 100: %+v", owners)
	}
}

func mustQueryFsim(t *testing.T, eng *core.Engine, block uint64) []core.Owner {
	t.Helper()
	owners, err := eng.Query(block)
	if err != nil {
		t.Fatal(err)
	}
	return owners
}

// TestRelocateBlockFsim exercises fsim's pointer-rewriting side of block
// relocation against the engine's record transplantation, including a
// block shared by a snapshot and a clone.
func TestRelocateBlockFsim(t *testing.T) {
	vfs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: vfs, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(Config{Tracker: eng, Catalog: cat, Seed: 9})
	ino, _ := fs.CreateFile(0)
	if err := fs.WriteFile(0, ino, 0, 4); err != nil {
		t.Fatal(err)
	}
	v, err := fs.TakeSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Clone(0, v); err != nil {
		t.Fatal(err)
	}

	l, _ := fs.Line(0)
	old := l.Live.BlocksOf(ino)[1]
	target := fs.MaxBlock() + 100
	if n := fs.RelocateBlock(old, target); n == 0 {
		t.Fatal("no pointers rewritten")
	}
	if err := eng.RelocateBlock(old, target); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.VerifyBackrefs(eng); err != nil {
		t.Fatal(err)
	}
	// The snapshot image sees the new location too (relocation rewrites
	// all owners' pointers, which is the whole point of back references).
	if got := l.Snapshots[v].BlocksOf(ino)[1]; got != target {
		t.Fatalf("snapshot pointer = %d, want %d", got, target)
	}
}
