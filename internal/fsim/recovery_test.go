package fsim

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/naive"
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

// killPointTracker journals every op like journalingTracker and also
// remembers how many ops the last committed checkpoint covered, so a test
// can compute exactly which ops each durability mode must preserve across
// a crash.
type killPointTracker struct {
	eng   *core.Engine
	ops   []journalEntry
	acked int // ops covered by the last committed checkpoint
}

func normRef(r core.Ref) core.Ref {
	if r.Length == 0 {
		r.Length = 1 // match the engine's normalization
	}
	return r
}

func (k *killPointTracker) AddRef(r core.Ref, cp uint64) {
	k.ops = append(k.ops, journalEntry{ref: normRef(r), cp: cp, add: true})
	k.eng.AddRef(r, cp)
}

func (k *killPointTracker) RemoveRef(r core.Ref, cp uint64) {
	k.ops = append(k.ops, journalEntry{ref: normRef(r), cp: cp, add: false})
	k.eng.RemoveRef(r, cp)
}

func (k *killPointTracker) Checkpoint(cp uint64) error {
	if err := k.eng.Checkpoint(cp); err != nil {
		return err
	}
	k.acked = len(k.ops)
	return nil
}

// verifyAgainstNaive drives ops into a fresh Section 4.1 naive tracker —
// the simplest possible correct implementation — and compares the set of
// live references per block against the recovered engine.
func verifyAgainstNaive(t *testing.T, eng *core.Engine, ops []journalEntry) {
	t.Helper()
	oracle, err := naive.New(storage.NewMemFS(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[uint64]bool{}
	for _, op := range ops {
		blocks[op.ref.Block] = true
		if op.add {
			oracle.AddRef(op.ref, op.cp)
		} else {
			oracle.RemoveRef(op.ref, op.cp)
		}
	}
	for b := range blocks {
		recs, err := oracle.QueryBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		want := map[core.Ref]bool{}
		for _, r := range recs {
			if r.To == core.Infinity {
				want[r.Ref] = true
			}
		}
		owners, err := eng.Query(b)
		if err != nil {
			t.Fatal(err)
		}
		got := map[core.Ref]bool{}
		for _, o := range owners {
			if o.Live {
				got[core.Ref{Block: b, Inode: o.Inode, Offset: o.Offset, Line: o.Line, Length: o.Length}] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("block %d: %d live owners, oracle says %d\n got: %v\nwant: %v", b, len(got), len(want), got, want)
		}
		for r := range want {
			if !got[r] {
				t.Fatalf("block %d: oracle reference %+v missing after recovery", b, r)
			}
		}
	}
}

// TestKillPointRecoveryAgainstNaiveOracle crashes a random fsim workload
// between AddRef and Checkpoint under every durability mode and checks the
// replayed state against the naive oracle. With Durability: Sync, no
// acknowledged reference may be lost even though no checkpoint covered it
// — the acceptance criterion for the write-ahead log. With Buffered and
// CheckpointOnly the recovered state must be exactly the last committed
// checkpoint (the log segments were never synced, so MemFS.Crash discards
// them; the default 4 MB segment size guarantees no mid-test rotation
// syncs a prefix).
func TestKillPointRecoveryAgainstNaiveOracle(t *testing.T) {
	for _, mode := range []wal.Durability{wal.CheckpointOnly, wal.Buffered, wal.Sync} {
		t.Run(mode.String(), func(t *testing.T) {
			vfs := storage.NewMemFS()
			cat := core.NewMemCatalog()
			open := func() *core.Engine {
				eng, err := core.Open(core.Options{VFS: vfs, Catalog: cat, Durability: mode})
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			kt := &killPointTracker{eng: open()}
			fs := New(Config{Tracker: kt, Catalog: cat, DedupRate: 0.15, Seed: 7})
			rng := rand.New(rand.NewSource(101))

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

			for round := 0; round < 5; round++ {
				churn(10 + rng.Intn(20))
				if _, err := fs.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// The kill point: acknowledged updates, no checkpoint.
				churn(5 + rng.Intn(25))
				vfs.Crash()
				eng2 := open()

				acked := kt.ops
				if mode != wal.Sync {
					acked = kt.ops[:kt.acked]
				}
				verifyAgainstNaive(t, eng2, acked)
				if mode == wal.Sync && round == 0 && eng2.Stats().WALReplayed == 0 {
					t.Fatal("sync-mode recovery replayed nothing")
				}

				// Re-drive the legitimately lost tail (the file system's
				// journal would do this, Section 5.4) so the engine
				// matches fsim's in-memory tree again, then prove the
				// recovered system keeps working end to end.
				if mode != wal.Sync {
					for _, op := range kt.ops[kt.acked:] {
						if op.add {
							eng2.AddRef(op.ref, op.cp)
						} else {
							eng2.RemoveRef(op.ref, op.cp)
						}
					}
				}
				kt.eng = eng2
				if _, err := fs.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := fs.VerifyBackrefs(kt.eng); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		})
	}
}

// TestCheckpointFlushCrashKillPoint crashes INSIDE a checkpoint's
// lock-free flush — after the write stores froze, before the manifest
// commit — under every durability mode. The frozen-store checkpoint must
// make this window indistinguishable from crashing before the checkpoint:
// in Sync mode every acknowledged record replays from the log (the cut
// taken at the freeze retires nothing until the commit), and in
// Buffered/CheckpointOnly modes the recovered state is exactly the last
// committed consistency point.
func TestCheckpointFlushCrashKillPoint(t *testing.T) {
	for _, mode := range []wal.Durability{wal.CheckpointOnly, wal.Buffered, wal.Sync} {
		t.Run(mode.String(), func(t *testing.T) {
			vfs := storage.NewMemFS()
			cat := core.NewMemCatalog()
			open := func() *core.Engine {
				eng, err := core.Open(core.Options{VFS: vfs, Catalog: cat, Durability: mode})
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			kt := &killPointTracker{eng: open()}
			fs := New(Config{Tracker: kt, Catalog: cat, DedupRate: 0.15, Seed: 31})
			rng := rand.New(rand.NewSource(77))

			var inos []uint64
			churn := func(n int) {
				for i := 0; i < n; i++ {
					if rng.Intn(3) == 0 || len(inos) == 0 {
						ino, err := fs.CreateFile(0)
						if err != nil {
							t.Fatal(err)
						}
						if err := fs.WriteFile(0, ino, 0, 1+rng.Intn(5)); err != nil {
							t.Fatal(err)
						}
						inos = append(inos, ino)
					} else {
						ino := inos[rng.Intn(len(inos))]
						ln, err := fs.FileLen(0, ino)
						if err != nil || ln == 0 {
							continue
						}
						if err := fs.WriteFile(0, ino, uint64(rng.Intn(int(ln))), 1); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			churn(30)
			if _, err := fs.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			churn(25)

			// The kill point: let the next checkpoint freeze and start
			// flushing, then fail its writes and pull the plug.
			vfs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: vfs.Stats().PageWrites + 1})
			if _, err := fs.Checkpoint(); err == nil {
				t.Fatal("checkpoint survived the injected mid-flush failure")
			}
			vfs.SetFailurePlan(storage.FailurePlan{})
			vfs.Crash()
			eng2 := open()

			acked := kt.ops
			if mode != wal.Sync {
				acked = kt.ops[:kt.acked]
			}
			verifyAgainstNaive(t, eng2, acked)

			// Re-drive the legitimately lost tail, then prove the
			// recovered system checkpoints and verifies end to end.
			if mode != wal.Sync {
				for _, op := range kt.ops[kt.acked:] {
					if op.add {
						eng2.AddRef(op.ref, op.cp)
					} else {
						eng2.RemoveRef(op.ref, op.cp)
					}
				}
			}
			kt.eng = eng2
			if _, err := fs.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := fs.VerifyBackrefs(kt.eng); err != nil {
				t.Fatal(err)
			}
		})
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
	// boundary that the next frame (at least 15 bytes) must straddle it,
	// then arm the torn write there with a one-page budget: the frame's
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
	for ; segSize()%storage.PageSize <= storage.PageSize-12; survivors++ {
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
