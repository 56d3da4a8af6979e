// Leveled-maintenance tests: a recording policy audits that the planner
// never names a merge input the retention horizon has already passed. (The
// leveled policy under concurrent load is TestStateMachineConcurrent's
// "leveled" row, whose host goroutine loops MaintainNow.)
package core_test

import (
	"sync"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/lsm"
)

// recordingPolicy wraps a CompactionPolicy and audits every plan: it
// counts violations (a planned Combined input the horizon has already
// passed) and remembers whether any plan ever ran while the pinned view
// actually contained such a droppable run — so a clean result means the
// exclusion was exercised, not vacuous.
type recordingPolicy struct {
	inner core.CompactionPolicy

	mu           sync.Mutex
	plans        int
	sawDroppable bool
	violations   int
}

func (p *recordingPolicy) Name() string { return p.inner.Name() }

func (p *recordingPolicy) Plan(v *lsm.View, ctx core.PlanContext) []core.CompactionJob {
	jobs := p.inner.Plan(v, ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.plans++
	if ctx.Tiered && ctx.Horizon > 0 {
		for part := 0; part < ctx.Partitions; part++ {
			for _, r := range v.Runs(core.TableCombined, part) {
				if r.DroppableBelow(ctx.Horizon) {
					p.sawDroppable = true
				}
			}
		}
		for _, job := range jobs {
			for _, r := range job.Combined {
				if r.DroppableBelow(ctx.Horizon) {
					p.violations++
				}
			}
		}
	}
	return jobs
}

// TestLeveledRetainLiveNeverPlansExpiredRuns: under RetainLive, stepped
// merging must leave runs below the reclaim horizon to expiry — merging
// one would rewrite records expiry could reclaim for free (and the merge
// output's wider CP window would then pin the survivors). The recording
// policy audits every plan the engine makes, including one taken after
// the horizon moved and before any commit, when droppable runs are still
// in the view.
func TestLeveledRetainLiveNeverPlansExpiredRuns(t *testing.T) {
	rec := &recordingPolicy{inner: core.PolicyLeveled{}}
	env := newFreezeEnv(t, core.Options{
		Retention:        core.RetainLive,
		CompactionPolicy: rec,
		Fanout:           2,
	})
	cat, eng := env.cat, env.eng
	defer eng.Close()

	// Two epochs of add/checkpoint/remove/checkpoint with snapshots
	// retaining the windows; the maintenance pass merges the level-0 runs
	// and seals the completed pairs into a Combined run.
	cp := uint64(0)
	epoch := func(block uint64) {
		cp++
		if err := cat.CreateSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
		eng.AddRef(fref(block, block, 0, 0), cp)
		fCheckpoint(t, eng, cp)
		cp++
		eng.RemoveRef(fref(block, block, 0, 0), cp)
		fCheckpoint(t, eng, cp)
		if err := eng.MaintainNow(); err != nil {
			t.Fatal(err)
		}
	}
	epoch(1)
	epoch(3)

	sealed := 0
	for _, ri := range eng.RunInfos() {
		if ri.Table == core.TableCombined && ri.Level >= 1 && ri.CPWindowKnown && ri.Overrides == 0 {
			sealed++
		}
	}
	if sealed == 0 {
		t.Fatalf("no sealed run after two epochs: %+v", eng.RunInfos())
	}

	// Move the horizon past everything sealed so far: a fresh snapshot
	// sits above the sealed windows, all older ones go. Nothing commits
	// until the next checkpoint, so the droppable runs are still live in
	// the manifest.
	cp++
	if err := cat.CreateSnapshot(0, cp); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 3} {
		if err := cat.DeleteSnapshot(0, id); err != nil {
			t.Fatal(err)
		}
	}
	// MaintenanceStats plans (without committing) to report PendingJobs:
	// this plan must see the droppable run and must not touch it.
	if n := eng.MaintenanceStats().PendingJobs; n != 0 {
		t.Fatalf("planned %d jobs over expiry-ready runs, want 0", n)
	}
	rec.mu.Lock()
	saw, plans := rec.sawDroppable, rec.plans
	rec.mu.Unlock()
	if plans == 0 {
		t.Fatal("recording policy never planned")
	}
	if !saw {
		t.Fatal("no plan ever saw a droppable run; the exclusion was not exercised")
	}

	// The checkpoint's install reclaims the runs by manifest edit.
	eng.AddRef(fref(9, 9, 0, 0), cp)
	fCheckpoint(t, eng, cp)
	if st := eng.Stats(); st.RunsExpired == 0 {
		t.Fatalf("expiry reclaimed nothing: %+v", st)
	}
	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.violations != 0 {
		t.Fatalf("%d planned merge inputs were below the reclaim horizon", rec.violations)
	}
}

// TestLeveledMergeThatCannotShrinkIsNotPlanned pins the planner's guard
// against merges that cannot shrink a level (runShape.due). Under
// RetainLive a tiered Compact leaves level 1 holding a From run, a sealed
// Combined run and an override run: two Combined runs reach a Fanout of 2,
// yet their merge would write the same three runs one level up, trigger
// there again, and climb forever. The level must be left alone — nothing
// pending, and a maintenance pass that returns with no run above level 1.
func TestLeveledMergeThatCannotShrinkIsNotPlanned(t *testing.T) {
	fx := newMergeFixture(t, core.Options{Retention: core.RetainLive, CompactionPolicy: core.PolicyLeveled{}, Fanout: 2})
	live := core.Ref{Block: 1, Inode: 1, Length: 1}
	ended := core.Ref{Block: 1, Inode: 2, Length: 1}
	fx.apply(refOp{ref: live, cp: 1})
	fx.apply(refOp{ref: ended, cp: 1})
	fx.m.snapshot(0, 1)
	if err := fx.cat.CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	fCheckpoint(t, fx.eng, 1)
	fx.m.clone(1, 0, 1)
	if err := fx.cat.CreateClone(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	inherited := live
	inherited.Line = 1
	fx.apply(refOp{ref: inherited, cp: 2, remove: true})
	fx.apply(refOp{ref: ended, cp: 2, remove: true})
	fCheckpoint(t, fx.eng, 2)
	if err := fx.eng.Compact(); err != nil {
		t.Fatal(err)
	}

	var from, sealed, override int
	for _, ri := range fx.eng.RunInfos() {
		switch {
		case ri.Level != 1:
		case ri.Table == core.TableFrom:
			from++
		case ri.Table == core.TableCombined && ri.Overrides == 0:
			sealed++
		case ri.Table == core.TableCombined:
			override++
		}
	}
	if from != 1 || sealed != 1 || override != 1 || fx.eng.RunCount() != 3 {
		t.Fatalf("fixture: want level 1 to hold a From, a sealed Combined and an override run: %+v", fx.eng.RunInfos())
	}
	if ms := fx.eng.MaintenanceStats(); ms.PendingJobs != 0 {
		t.Fatalf("%d jobs pending over a level no merge can shrink", ms.PendingJobs)
	}
	done := make(chan error, 1)
	go func() { done <- fx.eng.MaintainNow() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("MaintainNow has not returned after 10s: %+v", fx.eng.RunInfos())
	}
	for _, ri := range fx.eng.RunInfos() {
		if ri.Level > 1 {
			t.Fatalf("a run climbed to level %d: %+v", ri.Level, fx.eng.RunInfos())
		}
	}
	fx.verify()
}
