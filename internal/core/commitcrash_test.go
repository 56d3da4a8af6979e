package core_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// crashBlocks is the block space of the commit crash tests: two partitions
// of eight blocks, so a checkpoint makes two run files and its commit rides
// the second.
const crashBlocks = 16

func crashOptions(fs storage.VFS, mode wal.Durability) core.Options {
	return core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: mode, Partitions: 2, PartitionSpan: crashBlocks / 2, WriteShards: 1}
}

// commitOp is the op a crash test kills: it runs on a store holding CP 1's
// references (inode 1 on every block) with snapshot 1 committed by an
// Expire, so that the commit before the op's is a commit file of its own,
// and CP 2's references (inode 2 on every block) in the write stores — in
// a Buffered store, in its synced log too, by a close and a reopen.
type commitOp struct {
	name string
	prep func(eng *core.Engine) error // before the op, on no kill's clock
	run  func(eng *core.Engine) error
	// snaps is what the op's own commit adds to the catalog.
	snaps []uint64
}

var commitOps = []commitOp{
	{name: "Checkpoint", run: func(eng *core.Engine) error { return eng.Checkpoint(2) }},
	// A Close after a checkpoint and a catalog change: the commit before
	// it rides the checkpoint's run file, and its own is a commit file.
	{name: "Close", snaps: []uint64{2}, run: (*core.Engine).Close, prep: func(eng *core.Engine) error {
		if err := eng.Checkpoint(2); err != nil {
			return err
		}
		return eng.Catalog().CreateSnapshot(0, 2)
	}},
}

// crashSetup builds the store op runs on.
func crashSetup(t *testing.T, fs *storage.MemFS, mode wal.Durability, op commitOp) *core.Engine {
	t.Helper()
	open := func() *core.Engine {
		eng, err := core.Open(crashOptions(fs, mode))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	for b := uint64(0); b < crashBlocks; b++ {
		eng.AddRef(fref(b, 1, b, 0), 1)
	}
	fCheckpoint(t, eng, 1)
	if err := eng.Catalog().CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Expire(); err != nil {
		t.Fatal(err)
	}
	for b := uint64(0); b < crashBlocks; b++ {
		eng.AddRef(fref(b, 2, b, 0), 2)
	}
	if mode == wal.Buffered {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		eng = open()
	}
	if op.prep != nil {
		if err := op.prep(eng); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// crashStates are the power failures each kill point is tried under: the
// state Crash has always left, every prefix of the directory's entry
// operations since its last sync (the store creates fewer than eight), all
// of them with every unsynced page, and with every unsynced page but the
// second of each checkpoint file, whose trailer page then survives an
// earlier page that did not.
func crashStates() map[string]storage.CrashState {
	states := map[string]storage.CrashState{"default": {}}
	for e := range 8 {
		states[fmt.Sprintf("entries %d", e)] = storage.CrashState{Directory: true, Entries: e}
	}
	all := func(string, int64) bool { return true }
	states["every page"] = storage.CrashState{Directory: true, Entries: 1 << 20, Pages: all}
	states["torn checkpoint file"] = storage.CrashState{Directory: true, Entries: 1 << 20, Pages: func(name string, p int64) bool {
		return !strings.HasPrefix(name, "cp.") || p != 1
	}}
	return states
}

// TestCommitSurvivesACrashAtEveryKillPoint: a Checkpoint and a Close, in
// CheckpointOnly and in Buffered mode, killed at each of their mutating
// calls in turn and at the first call after they returned, each under
// every crash state. The reopened store shows the op's commit whole or the
// one before it — the CP, the snapshots and every block's owners of one of
// the two — and the op's, once it has returned. Falling back to the commit
// before a checkpoint, a Buffered store replays the rest from its log. The
// directory then holds only what the commit needs and the log.
func TestCommitSurvivesACrashAtEveryKillPoint(t *testing.T) {
	for _, mode := range []wal.Durability{wal.CheckpointOnly, wal.Buffered} {
		for _, op := range commitOps {
			t.Run(fmt.Sprintf("%s/%v", op.name, mode), func(t *testing.T) {
				fs := storage.NewMemFS()
				eng := crashSetup(t, fs, mode, op)
				start := fs.Stats().Calls
				if err := op.run(eng); err != nil {
					t.Fatal(err)
				}
				calls := fs.Stats().Calls - start
				fell := 0
				for k := int64(1); k <= calls+1; k++ {
					for name, state := range crashStates() {
						fell += crashAt(t, mode, op, k, k == calls+1, name, state)
					}
				}
				if fell == 0 {
					t.Fatal("no crash fell back to the commit before the op's")
				}
			})
		}
	}
}

// crashAt runs op on a fresh store, kills it at its call k (torn at every
// other k), crashes into state and checks what reopens. It returns 1 if
// the reopened store shows the commit before the op's.
func crashAt(t *testing.T, mode wal.Durability, op commitOp, k int64, returned bool, stateName string, state storage.CrashState) int {
	t.Helper()
	what := fmt.Sprintf("killed at call %d, crash state %q", k, stateName)
	fs := storage.NewMemFS()
	eng := crashSetup(t, fs, mode, op)
	fs.SetFailurePlan(storage.FailurePlan{KillAt: fs.Stats().Calls + k, TornWrite: k%2 == 0})
	err := op.run(eng)
	if returned && err != nil {
		t.Fatalf("%s: the op failed before its kill point: %v", what, err)
	}
	fs.SetFailurePlan(storage.FailurePlan{KillAt: fs.Stats().Calls + 1})
	if op.name != "Close" {
		eng.Close()
	}
	fs.Crash(state)
	fs.SetFailurePlan(storage.FailurePlan{})
	eng, err = core.Open(crashOptions(fs, mode))
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	defer eng.Close()

	snaps := eng.Catalog().Snapshots(0)
	newCP, newSnaps := uint64(2), append([]uint64{1}, op.snaps...)
	prevCP, prevSnaps := uint64(2), []uint64{1}
	if op.name == "Checkpoint" {
		prevCP = 1
	}
	isNew := eng.CP() == newCP && slices.Equal(snaps, newSnaps)
	isPrev := eng.CP() == prevCP && slices.Equal(snaps, prevSnaps)
	switch {
	case !isNew && !isPrev:
		t.Fatalf("%s: reopened at CP %d with snapshots %v: neither the op's commit (CP %d, %v) nor the one before (CP %d, %v)",
			what, eng.CP(), snaps, newCP, newSnaps, prevCP, prevSnaps)
	case returned && !isNew:
		t.Fatalf("%s: the op returned, and the store reopened at the commit before it", what)
	}
	// Inode 2's references are in the op's commit, or in the commit before
	// it plus a Buffered store's log; a CheckpointOnly store that fell back
	// before the checkpoint lost them.
	want := 2
	if isPrev && !isNew && mode == wal.CheckpointOnly && op.name == "Checkpoint" {
		want = 1
	}
	for b := uint64(0); b < crashBlocks; b++ {
		owners, err := eng.Query(b)
		if err != nil {
			t.Fatalf("%s: block %d: %v", what, b, err)
		}
		if len(owners) != want {
			t.Fatalf("%s: block %d has %d owners at CP %d, want %d", what, b, len(owners), eng.CP(), want)
		}
	}
	if err := noOrphans(fs, eng); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if isPrev && !isNew {
		return 1
	}
	return 0
}

// TestFailedCommitRemovesItsFile: a checkpoint whose commit fails at its
// trailer's sync removes the run file the trailer went to and returns the
// error, durability intact; one that cannot remove it either makes that the
// sticky durability error (lsm.ErrLeftover), which the next checkpoint to
// commit clears. A Close whose commit file fails to write removes it too.
func TestFailedCommitRemovesItsFile(t *testing.T) {
	fs := storage.NewMemFS()
	eng, err := core.Open(crashOptions(fs, wal.CheckpointOnly))
	if err != nil {
		t.Fatal(err)
	}
	carrier := ""
	fail := func(removeToo bool) {
		fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
			switch {
			case c.Op == storage.OpSync && strings.HasPrefix(c.Name, "cp.p001."):
				carrier = c.Name
				return storage.ErrInjected
			case c.Op == storage.OpRemove && removeToo && c.Name == carrier:
				return storage.ErrInjected
			}
			return nil
		}})
	}
	for b := uint64(0); b < crashBlocks; b++ {
		eng.AddRef(fref(b, 1, b, 0), 1)
	}
	fail(false)
	if err := eng.Checkpoint(1); !errors.Is(err, storage.ErrInjected) || errors.Is(err, lsm.ErrLeftover) {
		t.Fatalf("Checkpoint over a failing trailer sync = %v, want the injected error alone", err)
	}
	if names := listNames(t, fs); slices.Contains(names, carrier) || eng.WALErr() != nil {
		t.Fatalf("after the failed commit: %v, WALErr %v; want %s gone and no durability error", names, eng.WALErr(), carrier)
	}
	fail(true)
	if err := eng.Checkpoint(1); !errors.Is(err, lsm.ErrLeftover) {
		t.Fatalf("Checkpoint over a failing trailer sync and removal = %v, want lsm.ErrLeftover", err)
	}
	if names := listNames(t, fs); !slices.Contains(names, carrier) || !errors.Is(eng.WALErr(), lsm.ErrLeftover) {
		t.Fatalf("after the failed removal: %v, WALErr %v; want %s left and a sticky lsm.ErrLeftover", names, eng.WALErr(), carrier)
	}
	fs.SetFailurePlan(storage.FailurePlan{})
	fCheckpoint(t, eng, 1)
	if err := eng.WALErr(); err != nil {
		t.Fatalf("a checkpoint that committed left WALErr %v", err)
	}

	if err := eng.Catalog().CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	failCalls(fs, storage.OpWrite, "commit.")
	if err := eng.Close(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Close over a failing commit write = %v, want the injected error", err)
	}
	if names := listNames(t, fs); slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, "commit.") }) {
		t.Fatalf("the failed Close left its commit file: %v", names)
	}
}
