// Tests of the one merge executor against a storage layer that misbehaves
// on cue: a header write that fails inside FileSet.Finish, and a
// checkpoint, another merge or a catalog change committed while a merge is
// in flight. Package
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

// mergeFile prefixes the name of every file a merge writes.
const mergeFile = "merge."

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

// noOrphans checks the directory against the last commit: it must hold
// exactly the file that carries it (none while nothing has committed), the
// run and deletion-vector files its manifest names, the files of the live
// runs —
// those a merge installed in memory since the last commit too — and
// write-ahead-log segments, whose contents are wal.TestCrashAtEveryIO's
// business. Nothing commits in the background, so the caller holds the
// store still.
func noOrphans(fs storage.VFS, eng *core.Engine) error {
	want := eng.Files()
	for _, ri := range eng.RunInfos() {
		want = append(want, ri.Name)
	}
	names, err := fs.List()
	if err != nil {
		return err
	}
	names = slices.DeleteFunc(names, func(n string) bool { return strings.HasPrefix(n, "wal-") })
	if slices.Sort(want); !slices.Equal(names, slices.Compact(want)) {
		return fmt.Errorf("the directory holds %v besides the log, the manifest and the live runs name %v", names, want)
	}
	return nil
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

// TestFinishFailureLeavesNoOrphan fails the header write of a merge's
// file, which holds a section per output — in the leveled case From, To
// and Combined, in the whole case From and Combined. Whatever the job's
// shape, the failed merge must leave no run file the manifest does not
// list, the store must keep answering like the model, and the merge must
// go through once the fault is gone.
func TestFinishFailureLeavesNoOrphan(t *testing.T) {
	cases := []struct {
		name  string
		opts  core.Options
		merge func(*core.Engine) error
	}{
		// Outputs From, To (removals whose Froms sit a level up), Combined.
		{"leveled", core.Options{CompactionPolicy: core.PolicyLeveled{}, Fanout: 2}, (*core.Engine).MaintainNow},
		// Outputs From, Combined.
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

			// Fail the write at offset 0 of the merge's file. Pages start at
			// page 1, so the only write there is the one that carries the
			// first run's header, which btree.FileWriter.Finish issues last.
			failed, doomed := 0, ""
			fx.fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
				if c.Op == storage.OpCreate && strings.HasPrefix(c.Name, mergeFile) {
					doomed = c.Name
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

// TestMergeInstallBesideACheckpoint lands a checkpoint inside a
// whole-partition merge — from within the creation of the merge's file,
// where it holds no structural lock. CP 5's removals are Tos of
// Froms the merge reads. The checkpoint consumes none of the merge's
// inputs, so the merge installs at its first attempt, and CP 5's runs, the
// newer history, stay at level 0 beside its level-1 outputs.
func TestMergeInstallBesideACheckpoint(t *testing.T) {
	cases := []struct {
		name  string
		opts  core.Options
		merge func(*core.Engine) error
	}{
		{"Compact", core.Options{}, (*core.Engine).Compact},
		{"PolicyFullMaintainNow", core.Options{CompactionPolicy: core.PolicyFullAt{Threshold: 4}}, (*core.Engine).MaintainNow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newMergeFixture(t, tc.opts)
			for cp := uint64(1); cp <= 4; cp++ {
				fx.epoch(cp)
			}

			fired := false
			onRunCreate(fx.fs, func(name string) {
				if fired || !strings.HasPrefix(name, mergeFile) {
					return
				}
				fired = true
				fx.epoch(5)
			})
			if err := tc.merge(fx.eng); err != nil {
				t.Fatal(err)
			}
			fx.fs.SetFailurePlan(storage.FailurePlan{})

			if !fired {
				t.Fatal("the checkpoint never landed inside the merge")
			}
			if ms := fx.eng.MaintenanceStats(); ms.Conflicts != 0 {
				t.Fatalf("Conflicts = %d, want 0", ms.Conflicts)
			}
			if n := fx.eng.Stats().Compactions; n != 1 {
				t.Fatalf("Compactions = %d, want the one install", n)
			}
			// The merge's From and Combined outputs at level 1; CP 5's From
			// and To (a section each of one checkpoint file) at level 0.
			var got []string
			for _, ri := range fx.eng.RunInfos() {
				got = append(got, fmt.Sprintf("%s@%d", ri.Table, ri.Level))
			}
			slices.Sort(got)
			want := []string{core.TableCombined + "@1", core.TableFrom + "@0", core.TableFrom + "@1", core.TableTo + "@0"}
			if !slices.Equal(got, want) {
				t.Fatalf("runs after the merge %v, want %v: %+v", got, want, fx.eng.RunInfos())
			}
			fx.verify()
		})
	}
}

// TestWholeJobRunsItsPlannedInputs plans PolicyFull's whole merge, lets a
// checkpoint add a run after the plan, then executes the job. The job runs
// the inputs it was planned with and no others: CP 5's runs, newer history
// than the plan's view holds, stay live at level 0 beside the merge's
// level-1 outputs.
func TestWholeJobRunsItsPlannedInputs(t *testing.T) {
	fx := newMergeFixture(t, core.Options{})
	for cp := uint64(1); cp <= 4; cp++ {
		fx.epoch(cp)
	}
	jobs := fx.eng.PlanJobs(core.PolicyFullAt{Threshold: 4})
	if len(jobs) != 1 || !jobs[0].Whole {
		t.Fatalf("planned %+v, want one whole merge", jobs)
	}
	fx.epoch(5)
	installed, err := fx.eng.CompactJob(jobs[0])
	if err != nil || !installed {
		t.Fatalf("CompactJob = %v, %v, want the merge installed", installed, err)
	}
	var got []string
	for _, ri := range fx.eng.RunInfos() {
		got = append(got, fmt.Sprintf("%s@%d", ri.Table, ri.Level))
	}
	slices.Sort(got)
	want := []string{core.TableCombined + "@1", core.TableFrom + "@0", core.TableFrom + "@1", core.TableTo + "@0"}
	if !slices.Equal(got, want) {
		t.Fatalf("runs after the merge %v, want %v: %+v", got, want, fx.eng.RunInfos())
	}
	fx.verify()
}

// TestFoldedCascadeInstallsBesideACheckpoint lands a checkpoint inside a
// leveled merge that folds a cascade — held, like
// TestMergeInstallBesideACheckpoint's, at the creation of its file. At
// Fanout 2, CPs 1-2 merged to one level-1 run, and CPs 3-4 at level 0 would
// make it level 1's second: the job takes both levels and lands at level
// 2. CP 5's removals are Tos of Froms the merge reads. The checkpoint
// consumes none of its inputs, so the merge installs at its first attempt
// at level 2, and CP 5's runs stay at level 0.
func TestFoldedCascadeInstallsBesideACheckpoint(t *testing.T) {
	fx := newMergeFixture(t, core.Options{CompactionPolicy: core.PolicyLeveled{}, Fanout: 2})
	adds := func(cp uint64) {
		for i := uint64(0); i < fixtureBlocks; i++ {
			fx.apply(refOp{ref: core.Ref{Block: i, Inode: 10 + cp, Offset: i, Length: 1}, cp: cp})
		}
		fCheckpoint(t, fx.eng, cp)
	}
	adds(1)
	adds(2)
	if err := fx.eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	adds(3)
	adds(4)

	fired := false
	onRunCreate(fx.fs, func(name string) {
		if fired || !strings.HasPrefix(name, mergeFile) {
			return
		}
		fired = true
		fx.epoch(5)
	})
	before := fx.eng.Stats().Compactions
	if err := fx.eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	fx.fs.SetFailurePlan(storage.FailurePlan{})

	if !fired {
		t.Fatal("the checkpoint never landed inside the merge")
	}
	if ms := fx.eng.MaintenanceStats(); ms.Conflicts != 0 {
		t.Fatalf("Conflicts = %d, want 0", ms.Conflicts)
	}
	if n := fx.eng.Stats().Compactions - before; n != 1 {
		t.Fatalf("Compactions = %d, want the one folded install", n)
	}
	// The merge's From output at level 2; CP 5's From and To at level 0.
	var got []string
	for _, ri := range fx.eng.RunInfos() {
		got = append(got, fmt.Sprintf("%s@%d", ri.Table, ri.Level))
	}
	slices.Sort(got)
	want := []string{core.TableFrom + "@0", core.TableFrom + "@2", core.TableTo + "@0"}
	if !slices.Equal(got, want) {
		t.Fatalf("runs after the merge %v, want %v: %+v", got, want, fx.eng.RunInfos())
	}
	fx.verify()
}

// TestCompactReachesAFixedPoint: a Compact with no update since the last
// one merges nothing, writes no byte and creates no file, in either
// retention mode: what the last whole merge left — a lone From run beside
// the Combined run — is no work. A catalog change since makes it work
// again, for the purge the new topology may allow, and the Compact after
// that one is again a fixed point.
func TestCompactReachesAFixedPoint(t *testing.T) {
	for _, retention := range []core.RetentionPolicy{core.RetainAll, core.RetainLive} {
		fx := newMergeFixture(t, core.Options{Retention: retention})
		for cp := uint64(1); cp <= 4; cp++ {
			fx.epoch(cp)
		}
		compact := func() (merges, bytes uint64, files int64) {
			t.Helper()
			before, created := fx.eng.Stats(), fx.fs.Stats().FilesCreated
			if err := fx.eng.Compact(); err != nil {
				t.Fatal(err)
			}
			after := fx.eng.Stats()
			return after.Compactions - before.Compactions, after.CompactWriteBytes - before.CompactWriteBytes, fx.fs.Stats().FilesCreated - created
		}
		if merges, _, _ := compact(); merges == 0 {
			t.Fatalf("retention %d: the first Compact merged nothing", retention)
		}
		if n := len(fx.eng.DB().Table(core.TableFrom).Runs(0)); n != 1 {
			t.Fatalf("retention %d: %d From runs after the Compact, want the lone one this test is about", retention, n)
		}
		for _, step := range []string{"again", "after a catalog change", "once more"} {
			if step == "after a catalog change" {
				fx.m.snapshot(0, 5)
				if err := fx.cat.CreateSnapshot(0, 5); err != nil {
					t.Fatal(err)
				}
			}
			merges, bytes, files := compact()
			if work := step == "after a catalog change"; work != (merges > 0) || !work && (bytes != 0 || files != 0) {
				t.Fatalf("retention %d, Compact %s: %d merges, %d bytes written, %d files created", retention, step, merges, bytes, files)
			}
			fx.verify()
		}
	}
}

// TestMergeInstallConflictsOnConsumedInputs holds a whole-partition merge
// at its file's Create while another merge consumes its inputs.
// The held merge must find them gone at install, count one conflict and go
// back to Compact, which plans the partition's merge again from a fresh
// view and runs that, leaving the partition at one From and one Combined
// run: were it to install what it built, its outputs would sit beside the
// other merge's, the same records twice. After a nested whole merge the
// fresh plan finds what that merge left, which is no work.
func TestMergeInstallConflictsOnConsumedInputs(t *testing.T) {
	cases := []struct {
		name        string
		opts        core.Options
		nested      func(*core.Engine) error
		compactions uint64
	}{
		// A second whole merge consumes every input.
		{"Compact", core.Options{}, (*core.Engine).Compact, 1},
		// A stepped merge lifts the level-0 runs, every input, to level 1.
		{"leveled", core.Options{CompactionPolicy: core.PolicyLeveled{}, Fanout: 2}, (*core.Engine).MaintainNow, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newMergeFixture(t, tc.opts)
			for cp := uint64(1); cp <= 4; cp++ {
				fx.epoch(cp)
			}

			held := false
			onRunCreate(fx.fs, func(name string) {
				if held || !strings.HasPrefix(name, mergeFile) {
					return
				}
				held = true
				if err := tc.nested(fx.eng); err != nil {
					t.Error(err)
				}
			})
			if err := fx.eng.Compact(); err != nil {
				t.Fatal(err)
			}
			fx.fs.SetFailurePlan(storage.FailurePlan{})

			if !held {
				t.Fatal("the merge was never held")
			}
			if ms := fx.eng.MaintenanceStats(); ms.Conflicts != 1 {
				t.Fatalf("Conflicts = %d, want 1", ms.Conflicts)
			}
			if n := fx.eng.Stats().Compactions; n != tc.compactions {
				t.Fatalf("Compactions = %d, want %d: the nested merge, and the re-planned one unless that left the partition settled", n, tc.compactions)
			}
			if n := fx.eng.RunCount(); n != 2 {
				t.Fatalf("%d runs after the merge, want one From and one Combined: %+v", n, fx.eng.RunInfos())
			}
			fx.verify()
		})
	}
}

// TestMergeInstallKeepsLevelsOrdered holds a whole-partition merge of a
// leveled partition whose runs all sit at level 2 while nine checkpoints
// and their stepped merges lift newer history up beside them — level 2
// still takes fewer than Fanout runs per table, so no stepped merge
// consumes an input. The merge must land its outputs at level 2, not 1:
// beneath that newer history, the oldest records would later be stepped
// up together with runs younger than the history between them, and a
// stepped merge pairs the ends it reads as if they were adjacent.
func TestMergeInstallKeepsLevelsOrdered(t *testing.T) {
	fx := newMergeFixture(t, core.Options{CompactionPolicy: core.PolicyLeveled{}, Fanout: 3})
	cp := uint64(0)
	epochs := func(n int) {
		for range n {
			cp++
			fx.epoch(cp)
			if err := fx.eng.MaintainNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	epochs(9)
	for _, ri := range fx.eng.RunInfos() {
		if ri.Level != 2 {
			t.Fatalf("fixture: a run at level %d, want every run at level 2: %+v", ri.Level, fx.eng.RunInfos())
		}
	}
	pinned := cp

	held := false
	onRunCreate(fx.fs, func(name string) {
		if held || !strings.HasPrefix(name, mergeFile) {
			return
		}
		held = true
		epochs(9)
	})
	if err := fx.eng.Compact(); err != nil {
		t.Fatal(err)
	}
	fx.fs.SetFailurePlan(storage.FailurePlan{})
	if ms := fx.eng.MaintenanceStats(); !held || ms.Conflicts != 0 {
		t.Fatalf("held=%v, %d conflicts: want the merge held and installed at its first attempt", held, ms.Conflicts)
	}
	// Higher levels hold older history: no From or To run of the CPs after
	// the pin sits above one that holds history the merge read.
	for _, hi := range fx.eng.RunInfos() {
		for _, lo := range fx.eng.RunInfos() {
			if hi.Table != core.TableCombined && lo.Table != core.TableCombined &&
				hi.Level > lo.Level && hi.MinCP > pinned && lo.MinCP <= pinned {
				t.Fatalf("level %d holds CPs %d-%d, level %d CPs %d-%d: %+v",
					hi.Level, hi.MinCP, hi.MaxCP, lo.Level, lo.MinCP, lo.MaxCP, fx.eng.RunInfos())
			}
		}
	}
	epochs(9)
	fx.verify()
}

// TestMergeInstallCommitsTheLiveCatalog holds a merge between its pin and
// its install, at its file's Create, and there deletes the snapshot that
// retains the merge's input and commits the catalog alone (Expire). The
// merge still purges against the topology it pinned, but its own commit must
// carry the live one: a merge that committed what it pinned would put the
// deleted snapshot back into the manifest, and a reopen would resurrect it.
func TestMergeInstallCommitsTheLiveCatalog(t *testing.T) {
	fs := storage.NewMemFS()
	open := func() (*core.Engine, *core.MemCatalog) {
		t.Helper()
		cat := core.NewMemCatalog()
		eng, err := core.Open(core.Options{VFS: fs, Catalog: cat})
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
		if _, err := eng.Expire(); err != nil {
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
