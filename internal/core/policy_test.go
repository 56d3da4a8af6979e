package core

import (
	"slices"
	"testing"

	"github.com/backlogfs/backlog/internal/lsm"
)

// Unit tests for the compaction-policy layer: the triggers, the exact
// run sets jobs name, the horizon rule, and job ordering — all against
// views pinned from real engines, with the trigger knobs passed
// explicitly through PlanContext.

// planOn pins a view and runs pol.Plan under a caller-built context,
// mirroring Engine.planJobs with the knobs explicit.
func planOn(e *Engine, pol CompactionPolicy, ctx PlanContext) []CompactionJob {
	e.mu.RLock()
	v := e.db.AcquireView()
	e.mu.RUnlock()
	defer v.Release()
	return pol.Plan(v, ctx)
}

// liveRuns returns the engine's current runs of (table, partition 0),
// optionally without the sealed ones.
func liveRuns(e *Engine, table string, skipSealed bool) []*lsm.Run {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var runs []*lsm.Run
	for _, r := range e.db.Table(table).Runs(0) {
		if skipSealed && r.Sealed() {
			continue
		}
		runs = append(runs, r)
	}
	return runs
}

// assertWholeJob checks that job is the whole merge of partition 0: the
// Whole bit, output level 1, and input lists naming exactly the
// partition's From and To runs and its Combined runs (unsealed ones only
// when tiered).
func assertWholeJob(t *testing.T, e *Engine, job CompactionJob, tiered bool) {
	t.Helper()
	if !job.Whole || job.Partition != 0 || job.OutputLevel != 1 {
		t.Fatalf("job = %+v, want a Whole job for partition 0 at output level 1", job)
	}
	for _, in := range []struct {
		table string
		got   []*lsm.Run
		want  []*lsm.Run
	}{
		{TableFrom, job.From, liveRuns(e, TableFrom, false)},
		{TableTo, job.To, liveRuns(e, TableTo, false)},
		{TableCombined, job.Combined, liveRuns(e, TableCombined, tiered)},
	} {
		if len(in.got) != len(in.want) {
			t.Fatalf("%s inputs = %d runs, want exactly the partition's %d", in.table, len(in.got), len(in.want))
		}
		for i := range in.want {
			if in.got[i] != in.want[i] {
				t.Fatalf("%s input %d is run %s, want %s", in.table, i, in.got[i].Name(), in.want[i].Name())
			}
		}
	}
}

func baseCtx(e *Engine) PlanContext {
	return PlanContext{
		Partitions: e.db.Partitions(),
		Fanout:     DefaultFanout,
	}
}

func TestPolicyNames(t *testing.T) {
	if got := (PolicyFull{}).Name(); got != "full" {
		t.Errorf("PolicyFull.Name() = %q", got)
	}
	if got := (PolicyLeveled{}).Name(); got != "leveled" {
		t.Errorf("PolicyLeveled.Name() = %q", got)
	}
}

// TestPolicyFullThresholdGate: no job at exactly FullThreshold runs, one
// Whole job for the partition one run past it.
func TestPolicyFullThresholdGate(t *testing.T) {
	env := newTestEnv(t, Options{})
	defer env.eng.Close()
	for cp := uint64(1); cp <= FullThreshold; cp++ {
		env.eng.AddRef(ref(cp, 2, 0, 0), cp)
		mustCheckpoint(t, env.eng, cp)
	}
	ctx := baseCtx(env.eng)
	if jobs := planOn(env.eng, PolicyFull{}, ctx); len(jobs) != 0 {
		t.Fatalf("at threshold: planned %d jobs, want 0", len(jobs))
	}
	env.eng.AddRef(ref(99, 2, 0, 0), FullThreshold+1)
	mustCheckpoint(t, env.eng, FullThreshold+1)
	jobs := planOn(env.eng, PolicyFull{}, ctx)
	if len(jobs) != 1 {
		t.Fatalf("past threshold: planned %d jobs, want 1", len(jobs))
	}
	assertWholeJob(t, env.eng, jobs[0], false)
	if n := len(jobs[0].From); n != FullThreshold+1 {
		t.Fatalf("job names %d From runs, want %d", n, FullThreshold+1)
	}
}

// TestPolicyFullWorstFirst: with several partitions over threshold, the
// plan names the partition with the most runs.
func TestPolicyFullWorstFirst(t *testing.T) {
	env := newTestEnv(t, Options{Partitions: 4, PartitionSpan: 3})
	defer env.eng.Close()
	for cp := uint64(1); cp <= 12; cp++ {
		env.eng.AddRef(ref(cp, 2, 0, 0), cp)
		mustCheckpoint(t, env.eng, cp)
	}
	counts := map[int]int{}
	for _, ri := range env.eng.RunInfos() {
		counts[ri.Partition]++
	}
	worst, max := 0, 0
	for p := 0; p < 4; p++ {
		if counts[p] > max {
			worst, max = p, counts[p]
		}
	}
	jobs := planOn(env.eng, PolicyFullAt{Threshold: 1}, baseCtx(env.eng))
	if len(jobs) != 1 || jobs[0].Partition != worst {
		t.Fatalf("jobs = %+v, want one Whole job for worst partition %d (counts %v)", jobs, worst, counts)
	}
}

// TestPolicyLeveledFanoutTrigger: a level is merged only once one of its
// tables reaches Fanout runs, and the job then names every run of the
// level, targeting the next level.
func TestPolicyLeveledFanoutTrigger(t *testing.T) {
	env := newTestEnv(t, Options{})
	defer env.eng.Close()
	for cp := uint64(1); cp <= DefaultFanout-1; cp++ {
		env.eng.AddRef(ref(cp, 2, 0, 0), cp)
		mustCheckpoint(t, env.eng, cp)
	}
	ctx := baseCtx(env.eng)
	if jobs := planOn(env.eng, PolicyLeveled{}, ctx); len(jobs) != 0 {
		t.Fatalf("below fanout: planned %d jobs, want 0", len(jobs))
	}
	env.eng.AddRef(ref(99, 2, 0, 0), DefaultFanout)
	mustCheckpoint(t, env.eng, DefaultFanout)
	jobs := planOn(env.eng, PolicyLeveled{}, ctx)
	if len(jobs) != 1 {
		t.Fatalf("at fanout: planned %d jobs, want 1", len(jobs))
	}
	job := jobs[0]
	if job.Whole || job.Partition != 0 || job.OutputLevel != 1 {
		t.Fatalf("job = %+v, want a non-Whole partition-0 job targeting level 1", job)
	}
	if len(job.From) != DefaultFanout || len(job.To) != 0 || len(job.Combined) != 0 {
		t.Fatalf("job inputs = %d From, %d To, %d Combined, want %d/0/0",
			len(job.From), len(job.To), len(job.Combined), DefaultFanout)
	}
	ctx.Fanout = DefaultFanout + 4
	if jobs := planOn(env.eng, PolicyLeveled{}, ctx); len(jobs) != 0 {
		t.Fatalf("higher fanout still planned %d jobs", len(jobs))
	}
}

// TestPolicyLeveledTakesWholeLevel: one table reaching Fanout pulls the
// sibling tables' runs at that level into the same job — a level merge
// must see every run of the level so record pairing stays local.
func TestPolicyLeveledTakesWholeLevel(t *testing.T) {
	env := newTestEnv(t, Options{})
	defer env.eng.Close()
	for cp := uint64(1); cp <= DefaultFanout; cp++ {
		env.eng.AddRef(ref(cp, 2, 0, 0), cp)
		if cp > 1 {
			env.eng.RemoveRef(ref(cp-1, 2, 0, 0), cp)
		}
		mustCheckpoint(t, env.eng, cp)
	}
	jobs := planOn(env.eng, PolicyLeveled{}, baseCtx(env.eng))
	if len(jobs) != 1 {
		t.Fatalf("planned %d jobs, want 1", len(jobs))
	}
	job := jobs[0]
	if len(job.From) != DefaultFanout || len(job.To) != DefaultFanout-1 {
		t.Fatalf("job inputs = %d From, %d To, want %d From and %d To",
			len(job.From), len(job.To), DefaultFanout, DefaultFanout-1)
	}
}

// TestPolicyLeveledSteadyState: merged levels do not re-trigger. Two
// level-0 runs merge into one level-1 run; re-planning then finds
// nothing. When the next two level-0 runs are due, their output would be
// level 1's second run, so the pass folds the cascade: one merge takes
// both levels and lands at level 2, and the level-1 run it would have
// passed through is never written — the pass's compaction bytes are the
// final run's size.
func TestPolicyLeveledSteadyState(t *testing.T) {
	env := newTestEnv(t, Options{
		CompactionPolicy: PolicyLeveled{},
		Fanout:           2,
	})
	defer env.eng.Close()
	ingest := func(cp uint64) {
		env.eng.AddRef(ref(cp, 2, 0, 0), cp)
		mustCheckpoint(t, env.eng, cp)
		if err := env.eng.MaintainNow(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(1)
	ingest(2)
	ctx := baseCtx(env.eng)
	ctx.Fanout = 2
	if jobs := planOn(env.eng, PolicyLeveled{}, ctx); len(jobs) != 0 {
		t.Fatalf("drained engine still plans %d jobs", len(jobs))
	}
	maxLevel := 0
	for _, ri := range env.eng.RunInfos() {
		if ri.Level > maxLevel {
			maxLevel = ri.Level
		}
	}
	if maxLevel != 1 || env.eng.RunCount() != 1 {
		t.Fatalf("after one stepped merge: %d runs, max level %d, want 1 run at level 1",
			env.eng.RunCount(), maxLevel)
	}
	ingest(3)
	before := env.eng.Stats()
	ingest(4)
	after := env.eng.Stats()
	if n := after.Compactions - before.Compactions; n != 1 {
		t.Fatalf("the cascading pass installed %d merges, want 1", n)
	}
	infos := env.eng.RunInfos()
	if len(infos) != 1 || infos[0].Level != 2 {
		t.Fatalf("after the cascading merge: %+v, want 1 run at level 2", infos)
	}
	if n := after.CompactWriteBytes - before.CompactWriteBytes; n != uint64(infos[0].SizeBytes) {
		t.Fatalf("the cascading pass wrote %d compaction bytes, want the final run's %d", n, infos[0].SizeBytes)
	}
}

// leveledStore ingests one reference per checkpoint into partition 0
// under PolicyLeveled at the given fanout: maintained checkpoints run a
// maintenance pass after themselves, the unmaintained ones that follow
// are left at level 0.
func leveledStore(t *testing.T, fanout, maintained, unmaintained int) *testEnv {
	t.Helper()
	env := newTestEnv(t, Options{CompactionPolicy: PolicyLeveled{}, Fanout: fanout})
	for cp := uint64(1); cp <= uint64(maintained+unmaintained); cp++ {
		env.eng.AddRef(ref(cp, 2, 0, 0), cp)
		mustCheckpoint(t, env.eng, cp)
		if cp <= uint64(maintained) {
			if err := env.eng.MaintainNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return env
}

// runsByLevel counts the engine's runs per level.
func runsByLevel(e *Engine) map[int]int {
	n := map[int]int{}
	for _, ri := range e.RunInfos() {
		n[ri.Level]++
	}
	return n
}

// assertNamesEveryRun checks that job's inputs are exactly the engine's
// runs of partition 0 (every table, sealed ones too).
func assertNamesEveryRun(t *testing.T, e *Engine, job CompactionJob) {
	t.Helper()
	for _, in := range []struct {
		table string
		got   []*lsm.Run
	}{{TableFrom, job.From}, {TableTo, job.To}, {TableCombined, job.Combined}} {
		want := liveRuns(e, in.table, false)
		if len(in.got) != len(want) {
			t.Fatalf("%s inputs = %d runs, want all %d", in.table, len(in.got), len(want))
		}
		for _, r := range want {
			if !slices.Contains(in.got, r) {
				t.Fatalf("%s run %s at level %d is not an input", in.table, r.Name(), r.Level())
			}
		}
	}
}

// TestPolicyLeveledFoldsCascade: level 0 at Fanout with level 1 at
// Fanout-1 is one job — the level-0 merge's output would make level 1
// due — landing at level 2 and naming every run of both levels.
func TestPolicyLeveledFoldsCascade(t *testing.T) {
	f := DefaultFanout
	env := leveledStore(t, f, f*(f-1), f)
	defer env.eng.Close()
	if got := runsByLevel(env.eng); got[0] != f || got[1] != f-1 || len(got) != 2 {
		t.Fatalf("fixture: runs per level %v, want %d at level 0 and %d at level 1", got, f, f-1)
	}
	jobs := planOn(env.eng, PolicyLeveled{}, baseCtx(env.eng))
	if len(jobs) != 1 || jobs[0].OutputLevel != 2 {
		t.Fatalf("jobs = %+v, want one job landing at level 2", jobs)
	}
	assertNamesEveryRun(t, env.eng, jobs[0])
}

// TestPolicyLeveledNoFoldShortOfFanout: with level 1 at Fanout-2, the
// level-0 merge's output leaves it short of the fanout, so the job stays
// a level-0 merge landing at level 1.
func TestPolicyLeveledNoFoldShortOfFanout(t *testing.T) {
	f := DefaultFanout
	env := leveledStore(t, f, f*(f-2), f)
	defer env.eng.Close()
	if got := runsByLevel(env.eng); got[0] != f || got[1] != f-2 {
		t.Fatalf("fixture: runs per level %v, want %d at level 0 and %d at level 1", got, f, f-2)
	}
	jobs := planOn(env.eng, PolicyLeveled{}, baseCtx(env.eng))
	if len(jobs) != 1 || jobs[0].OutputLevel != 1 {
		t.Fatalf("jobs = %+v, want one job landing at level 1", jobs)
	}
	for _, r := range jobs[0].From {
		if r.Level() != 0 {
			t.Fatalf("input %s is at level %d, want level 0 only", r.Name(), r.Level())
		}
	}
	if len(jobs[0].From) != f {
		t.Fatalf("job names %d From runs, want level 0's %d", len(jobs[0].From), f)
	}
}

// TestPolicyLeveledFoldsThreeLevels: at Fanout 2, two level-0 runs over
// one run at each of levels 1 and 2 cascade through both: one job takes
// all four runs and lands at level 3.
func TestPolicyLeveledFoldsThreeLevels(t *testing.T) {
	env := leveledStore(t, 2, 6, 2)
	defer env.eng.Close()
	if got := runsByLevel(env.eng); got[0] != 2 || got[1] != 1 || got[2] != 1 || len(got) != 3 {
		t.Fatalf("fixture: runs per level %v, want 2, 1, 1 at levels 0-2", got)
	}
	ctx := baseCtx(env.eng)
	ctx.Fanout = 2
	jobs := planOn(env.eng, PolicyLeveled{}, ctx)
	if len(jobs) != 1 || jobs[0].OutputLevel != 3 {
		t.Fatalf("jobs = %+v, want one job landing at level 3", jobs)
	}
	assertNamesEveryRun(t, env.eng, jobs[0])
}

// TestPolicyLeveledFoldSkipsDroppableRuns: under tiered retention a fold
// takes a level's runs as a merge of that level would, without the
// Combined runs the reclaim horizon has passed. Level 1 holds a From run
// and the two sealed runs of sealedPair, windows [1,2] and [3,4]; two
// level-0 From runs are due, and their output makes level 1 due. With the
// horizon at 3 the job folds level 1 in but leaves the [1,2] run to
// expiry.
func TestPolicyLeveledFoldSkipsDroppableRuns(t *testing.T) {
	env := sealedPair(t)
	defer env.eng.Close()
	env.eng.AddRef(ref(5, 5, 0, 0), 5)
	mustCheckpoint(t, env.eng, 5)
	if err := env.eng.Compact(); err != nil {
		t.Fatal(err)
	}
	for cp := uint64(6); cp <= 7; cp++ {
		env.eng.AddRef(ref(cp, cp, 0, 0), cp)
		mustCheckpoint(t, env.eng, cp)
	}
	if got := runsByLevel(env.eng); got[0] != 2 || got[1] != 3 || len(got) != 2 {
		t.Fatalf("fixture: runs per level %v, want 2 at level 0 and 3 at level 1: %+v", got, env.eng.RunInfos())
	}
	ctx := PlanContext{Partitions: env.eng.db.Partitions(), Fanout: 2, Tiered: true, Horizon: 3}
	jobs := planOn(env.eng, PolicyLeveled{}, ctx)
	if len(jobs) != 1 || jobs[0].OutputLevel != 2 {
		t.Fatalf("jobs = %+v, want one job landing at level 2", jobs)
	}
	job := jobs[0]
	if len(job.From) != 3 || len(job.To) != 0 || len(job.Combined) != 1 {
		t.Fatalf("job inputs = %d From, %d To, %d Combined, want 3/0/1", len(job.From), len(job.To), len(job.Combined))
	}
	if r := job.Combined[0]; r.DroppableBelow(ctx.Horizon) || r.MinCP() != 3 {
		t.Fatalf("Combined input has window [%d,%d], want the [3,4] run only", r.MinCP(), r.MaxCP())
	}
}

// TestPolicyLeveledJobOrdering: jobs come out sorted by output level,
// then partition, so the drain loop shrinks lower levels first.
func TestPolicyLeveledJobOrdering(t *testing.T) {
	env := newTestEnv(t, Options{Partitions: 2, PartitionSpan: 4})
	defer env.eng.Close()
	for cp := uint64(1); cp <= DefaultFanout; cp++ {
		for b := uint64(0); b < 8; b++ {
			env.eng.AddRef(ref(b, 2+cp, b, 0), cp)
		}
		mustCheckpoint(t, env.eng, cp)
	}
	jobs := planOn(env.eng, PolicyLeveled{}, baseCtx(env.eng))
	if len(jobs) != 2 {
		t.Fatalf("planned %d jobs, want one per partition", len(jobs))
	}
	if jobs[0].Partition != 0 || jobs[1].Partition != 1 {
		t.Fatalf("job partitions = %d, %d, want ascending 0, 1", jobs[0].Partition, jobs[1].Partition)
	}
	for _, job := range jobs {
		if job.OutputLevel != 1 {
			t.Fatalf("job = %+v, want OutputLevel 1", job)
		}
	}
}

// sealedPair builds two sealed level-1 Combined runs in partition 0 with
// CP windows [1,2] and [3,4] (the expire_test sealedEnv shape) on a
// RetainLive engine: each epoch adds a reference, checkpoints, removes it,
// checkpoints, and compacts, which under RetainLive is tiered and pairs the
// two records into a sealed run.
func sealedPair(t *testing.T) *testEnv {
	t.Helper()
	env := newTestEnv(t, Options{Retention: RetainLive})
	epoch := func(cp, block uint64) {
		// A snapshot at cp retains the [cp, cp+1) interval; without it the
		// tiered merge would purge the pair instead of sealing it.
		if err := env.cat.CreateSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
		env.eng.AddRef(ref(block, block, 0, 0), cp)
		mustCheckpoint(t, env.eng, cp)
		env.eng.RemoveRef(ref(block, block, 0, 0), cp+1)
		mustCheckpoint(t, env.eng, cp+1)
		if err := env.eng.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	epoch(1, 1)
	epoch(3, 3)
	sealed := 0
	for _, ri := range env.eng.RunInfos() {
		if ri.Table == TableCombined && ri.Level >= 1 && ri.CPWindowKnown && ri.Overrides == 0 {
			sealed++
		}
	}
	if sealed != 2 {
		t.Fatalf("built %d sealed runs, want 2: %+v", sealed, env.eng.RunInfos())
	}
	return env
}

// TestPolicyLeveledHorizonExclusion: runs the retention horizon has
// passed are never chosen as merge inputs — expiry will drop them whole,
// and merging them would rewrite records only to discard them later.
func TestPolicyLeveledHorizonExclusion(t *testing.T) {
	env := sealedPair(t)
	defer env.eng.Close()
	ctx := PlanContext{Partitions: env.eng.db.Partitions(), Fanout: 2, Tiered: true}

	// Horizon below both windows: both runs are merge candidates.
	ctx.Horizon = 1
	jobs := planOn(env.eng, PolicyLeveled{}, ctx)
	if len(jobs) != 1 || len(jobs[0].Combined) != 2 {
		t.Fatalf("horizon 1: jobs = %+v, want one job over both sealed runs", jobs)
	}
	for _, r := range jobs[0].Combined {
		if r.DroppableBelow(ctx.Horizon) {
			t.Fatal("planned a merge input the horizon has already passed")
		}
	}

	// Horizon past the first window: that run leaves the plan, and the
	// survivor alone cannot reach the fanout trigger.
	ctx.Horizon = 3
	if jobs := planOn(env.eng, PolicyLeveled{}, ctx); len(jobs) != 0 {
		t.Fatalf("horizon 3: jobs = %+v, want none (one run is expiry's)", jobs)
	}

	// Horizon past both: nothing left to plan.
	ctx.Horizon = 5
	if jobs := planOn(env.eng, PolicyLeveled{}, ctx); len(jobs) != 0 {
		t.Fatalf("horizon 5: jobs = %+v, want none", jobs)
	}
}

// TestPolicyFullTieredExcludesSealed: under tiered maintenance the full
// policy's run counting skips sealed runs, so a partition that is
// nothing but expiry-awaiting history never re-triggers.
func TestPolicyFullTieredExcludesSealed(t *testing.T) {
	env := sealedPair(t)
	defer env.eng.Close()
	pol := PolicyFullAt{Threshold: 1}
	ctx := PlanContext{Partitions: env.eng.db.Partitions(), Tiered: true}
	if jobs := planOn(env.eng, pol, ctx); len(jobs) != 0 {
		t.Fatalf("tiered: jobs = %+v, want none (all runs sealed)", jobs)
	}
	ctx.Tiered = false
	jobs := planOn(env.eng, pol, ctx)
	if len(jobs) != 1 {
		t.Fatalf("untiered: planned %d jobs, want 1", len(jobs))
	}
	assertWholeJob(t, env.eng, jobs[0], false)

	// Two fresh flushes put the partition over the threshold in tiered
	// mode too; the job then names them and neither sealed run.
	for cp := uint64(5); cp <= 6; cp++ {
		env.eng.AddRef(ref(cp, cp, 0, 0), cp)
		mustCheckpoint(t, env.eng, cp)
	}
	ctx.Tiered = true
	jobs = planOn(env.eng, pol, ctx)
	if len(jobs) != 1 {
		t.Fatalf("tiered, two new runs: planned %d jobs, want 1", len(jobs))
	}
	assertWholeJob(t, env.eng, jobs[0], true)
	if len(jobs[0].From) != 2 || len(jobs[0].Combined) != 0 {
		t.Fatalf("tiered job inputs = %d From, %d Combined, want 2 and 0",
			len(jobs[0].From), len(jobs[0].Combined))
	}
}
