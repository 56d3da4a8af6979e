// Tests of the one merge executor against a storage layer that misbehaves
// on cue: a header write that fails inside RunBuilder.Finish, a checkpoint
// that lands in the middle of every optimistic attempt, and a catalog change
// committed while a merge is in flight. Package
// core_test because the answers are checked against the model.
package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// onRunCreate installs a plan on fs whose hook runs fn before each run-file
// Create. Creations fn itself causes (it may checkpoint, whose three tables
// create side by side) only read the unlocked guard and pass through.
func onRunCreate(fs *storage.MemFS, fn func(name string)) {
	inHook := false
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op == storage.OpCreate && strings.HasSuffix(c.Name, ".run") && !inHook {
			inHook = true
			fn(c.Name)
			inHook = false
		}
		return nil
	}})
}

// noOrphans checks the directory against the manifest: it must hold exactly
// MANIFEST (absent only while nothing has committed), the run and
// deletion-vector files the manifest names, and write-ahead-log segments,
// whose contents are wal.TestCrashAtEveryIO's business. A commit that lands
// while it lists the directory — the background maintainer's, under
// RetainLive — makes it look again.
func noOrphans(fs storage.VFS, eng *core.Engine) error {
	for {
		want := eng.Files()
		names, err := fs.List()
		if err != nil {
			return err
		}
		if !slices.Equal(want, eng.Files()) {
			continue
		}
		if eng.CP() > 0 || len(want) > 0 || slices.Contains(names, "MANIFEST") {
			want = append(want, "MANIFEST")
		}
		names = slices.DeleteFunc(names, func(n string) bool { return strings.HasPrefix(n, "wal-") })
		if slices.Sort(want); !slices.Equal(names, want) {
			return fmt.Errorf("the directory holds %v besides the log, the manifest names %v", names, want)
		}
		return nil
	}
}

// mergeFixture is an engine over a MemFS and the model of what it holds.
type mergeFixture struct {
	t   *testing.T
	fs  *storage.MemFS
	cat *core.MemCatalog
	eng *core.Engine
	m   *model
}

const fixtureBlocks = 48

func newMergeFixture(t *testing.T, opts core.Options) *mergeFixture {
	t.Helper()
	fx := &mergeFixture{t: t, fs: storage.NewMemFS(), cat: core.NewMemCatalog(), m: newModel()}
	opts.VFS, opts.Catalog = fx.fs, fx.cat
	eng, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.eng = eng
	t.Cleanup(func() { eng.Close() })
	return fx
}

func (fx *mergeFixture) apply(o refOp) {
	o.applyTo(fx.eng)
	fx.m.apply(o)
}

// epoch applies one consistency point: a batch of adds owned by inode
// 10+cp, the removal of every other reference added two CPs earlier (so
// the Tos of one flush pair with Froms of an older one), a snapshot that
// keeps the completed intervals from being purged, and the checkpoint.
func (fx *mergeFixture) epoch(cp uint64) {
	fx.t.Helper()
	for i := uint64(0); i < fixtureBlocks; i++ {
		fx.apply(refOp{ref: core.Ref{Block: i, Inode: 10 + cp, Offset: i, Length: 1}, cp: cp})
		if cp > 2 && i%2 == 0 {
			fx.apply(refOp{ref: core.Ref{Block: i, Inode: 10 + cp - 2, Offset: i, Length: 1}, cp: cp, remove: true})
		}
	}
	fx.m.snapshot(0, cp)
	if err := fx.cat.CreateSnapshot(0, cp); err != nil {
		fx.t.Fatal(err)
	}
	if err := fx.eng.Checkpoint(cp); err != nil {
		fx.t.Fatal(err)
	}
}

func (fx *mergeFixture) verify() {
	fx.t.Helper()
	if err := noOrphans(fx.fs, fx.eng); err != nil {
		fx.t.Fatal(err)
	}
	fx.m.check(fx.t, fx.eng, fixtureBlocks)
}

// TestFinishFailureLeavesNoOrphan fails the header write of the second
// output of a merge — a builder with a finished one before it and, in the
// leveled case, an unfinished one after it. Whatever the job's shape, the
// failed merge must leave no run file the manifest does not list, the
// store must keep answering like the model, and the merge must go through
// once the fault is gone.
func TestFinishFailureLeavesNoOrphan(t *testing.T) {
	cases := []struct {
		name  string
		opts  core.Options
		merge func(*core.Engine) error
	}{
		// Outputs From, To, Combined: the To run (removals whose Froms sit a
		// level up) fails.
		{"leveled", core.Options{CompactionPolicy: core.PolicyLeveled{}, Fanout: 2}, (*core.Engine).MaintainNow},
		// Outputs From, Combined: the Combined run fails.
		{"whole", core.Options{}, (*core.Engine).Compact},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newMergeFixture(t, tc.opts)
			fx.epoch(1)
			fx.epoch(2)
			// Under PolicyLeveled this lifts CPs 1-2 to level 1, so the
			// removals below are lone Tos at level 0; under PolicyFull it is
			// below the threshold and does nothing.
			if err := fx.eng.MaintainNow(); err != nil {
				t.Fatal(err)
			}
			fx.epoch(3)
			fx.epoch(4)

			// Fail the write at offset 0 of the second output. Pages start at
			// page 1, so the only write there is the run header
			// btree.Writer.Finish issues last.
			creates, failed, doomed := 0, 0, ""
			fx.fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
				if c.Op == storage.OpCreate && strings.HasSuffix(c.Name, ".run") {
					if creates++; creates == 2 {
						doomed = c.Name
					}
				}
				if c.Op == storage.OpWrite && c.Off == 0 && c.Name == doomed {
					failed++
					return storage.ErrInjected
				}
				return nil
			}})
			err := tc.merge(fx.eng)
			fx.fs.SetFailurePlan(storage.FailurePlan{})
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("merge error = %v, want the injected failure", err)
			}
			if failed != 1 {
				t.Fatalf("header write failed %d times, want 1", failed)
			}
			fx.verify()

			if err := tc.merge(fx.eng); err != nil {
				t.Fatalf("merge after the fault cleared: %v", err)
			}
			if n := fx.eng.Stats().Compactions; n == 0 {
				t.Fatal("retried merge installed nothing")
			}
			fx.verify()
		})
	}
}

// TestCompactionLadder drives a whole-partition merge down the whole
// retry ladder deterministically: a checkpoint lands inside each of the
// first CompactRetries attempts — from within the creation of the
// attempt's From output, where an optimistic attempt holds no structural
// lock — so each finds the partition changed at install and counts one
// conflict. The next attempt runs under the exclusive lock (the hook must
// not fire then: a checkpoint would deadlock on the single-flight guard),
// cannot conflict, and installs a merge that includes the runs the
// interfering checkpoints added.
func TestCompactionLadder(t *testing.T) {
	cases := []struct {
		name  string
		opts  core.Options
		merge func(*core.Engine) error
	}{
		{"Compact", core.Options{}, (*core.Engine).Compact},
		{"PolicyFullMaintainNow", core.Options{CompactThreshold: 4}, (*core.Engine).MaintainNow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newMergeFixture(t, tc.opts)
			for cp := uint64(1); cp <= 4; cp++ {
				fx.epoch(cp)
			}

			fired := 0
			onRunCreate(fx.fs, func(name string) {
				if !strings.HasPrefix(name, core.TableFrom+".") || fired == core.CompactRetries {
					return
				}
				fired++
				fx.epoch(4 + uint64(fired))
			})
			if err := tc.merge(fx.eng); err != nil {
				t.Fatal(err)
			}
			fx.fs.SetFailurePlan(storage.FailurePlan{})

			if fired != core.CompactRetries {
				t.Fatalf("interfering checkpoint ran %d times, want %d", fired, core.CompactRetries)
			}
			if ms := fx.eng.MaintenanceStats(); ms.Conflicts != core.CompactRetries {
				t.Fatalf("Conflicts = %d, want %d", ms.Conflicts, core.CompactRetries)
			}
			if n := fx.eng.Stats().Compactions; n != 1 {
				t.Fatalf("Compactions = %d, want the one pessimistic install", n)
			}
			// Everything, the interfering flushes included, is merged: one
			// From and one Combined run, no To.
			if n := fx.eng.RunCount(); n != 2 {
				t.Fatalf("%d runs after the merge, want 2: %+v", n, fx.eng.RunInfos())
			}
			fx.verify()
		})
	}
}

// TestMergeInstallCommitsTheLiveCatalog holds a merge between its pin and
// its install, at its first output's Create, and there deletes the snapshot
// that retains the merge's input and commits the catalog alone. The merge
// still purges against the topology it pinned, but its own commit must
// carry the live one: a merge that committed what it pinned would put the
// deleted snapshot back into the manifest, and a reopen would resurrect it.
func TestMergeInstallCommitsTheLiveCatalog(t *testing.T) {
	fs := storage.NewMemFS()
	open := func() (*core.Engine, *core.MemCatalog) {
		t.Helper()
		cat := core.NewMemCatalog()
		eng, err := core.Open(core.Options{VFS: fs, Catalog: cat, PersistCatalog: true})
		if err != nil {
			t.Fatal(err)
		}
		return eng, cat
	}
	eng, cat := open()
	r := core.Ref{Block: 1, Inode: 1, Length: 1}
	eng.AddRef(r, 1)
	if err := cat.CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	fCheckpoint(t, eng, 1)
	eng.RemoveRef(r, 2)
	eng.AddRef(core.Ref{Block: 2, Inode: 2, Length: 1}, 2)
	fCheckpoint(t, eng, 2)

	held := false
	onRunCreate(fs, func(string) {
		if held {
			return
		}
		held = true
		if err := cat.DeleteSnapshot(0, 1); err != nil {
			t.Error(err)
		}
		if err := eng.PersistCatalog(); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	fs.SetFailurePlan(storage.FailurePlan{})
	if !held || eng.Stats().Compactions != 1 || eng.MaintenanceStats().Conflicts != 0 {
		t.Fatalf("held=%v, %d merges installed, %d conflicts: want one merge held and installed at its first attempt",
			held, eng.Stats().Compactions, eng.MaintenanceStats().Conflicts)
	}
	live, err := cat.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if sec := eng.DB().Section(); !bytes.Equal(sec, live) {
		t.Fatalf("the merge committed the catalog %s, the live one is %s", sec, live)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	eng, cat = open()
	defer eng.Close()
	if got := cat.Snapshots(0); len(got) != 0 {
		t.Fatalf("snapshots after the reopen: %v, want none", got)
	}
	if got := fQuery(t, eng, 1); len(got) != 0 {
		t.Fatalf("block 1 after the reopen: %+v, want no owner", got)
	}
}
