package core

import (
	"maps"
	"slices"
	"sort"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/lsm"
)

// DefaultFanout is the stepped-merge fanout PolicyLeveled uses when
// Options.Fanout is zero: once a table accumulates this many runs at one
// level of a partition, the level merges into a single run one level up.
// A checkpoint adds one Level-0 run per table, so Level 0 merges every
// third checkpoint. Fitted on bench's mixed workload (leveled, RetainLive,
// seed 1), where fanouts 2, 3 and 4 measure write_amp 0.282, 0.266 and
// 0.243 and space per reference 8.68, 8.68 and 14.11 B: 2 rewrites more
// for no space saved, and 4 merges too rarely to purge, +62.5 % space for
// 8.8 % less write amplification.
const DefaultFanout = 3

// CompactionJob is one unit of maintenance work a CompactionPolicy asks
// the scheduler to perform: merge exactly the named input runs of one
// partition, install the outputs stamped OutputLevel, and leave every
// other run of the partition untouched. One executor (compactJob) runs
// every job; the paper's Section 5.2 whole-partition maintenance is the
// job wholeJob builds, whose inputs are everything mergeable.
type CompactionJob struct {
	Partition int
	// Whole states a property of the inputs, which the merge's emit rule
	// relies on: From and To list every From and To run of the partition —
	// its whole history as of the plan's view — so a record the merge finds
	// without a partner has none in that history (see emitLeveledGroup).
	// That view can be older than the one the executor pins; like any
	// job's, the inputs install only while still live, beside runs added
	// since, which hold only newer history (see compactJob).
	Whole bool
	// OutputLevel is the level stamped on the merge outputs: one above
	// the highest input level for a stepped merge, whose inputs are every
	// run of one level or of several adjacent ones (see
	// planPartitionLevels), and the highest input level — 1 at least — for
	// a whole merge; a rewrite's is its inputs' own.
	OutputLevel int
	// Rewrite marks a job that rewrites its input runs, at most one of
	// each table and all of one level, in the format the engine writes,
	// record for record, so each run keeps its level, its records and its
	// CP window (see rewriteJobs).
	Rewrite bool
	// From, To, and Combined are the input runs per table. The pointers
	// identify runs in the view the plan was made against; the executor
	// re-validates them against a fresh view before reading.
	From, To, Combined []*lsm.Run
}

// wholeJob builds the whole-partition merge of p as of v: every From and
// To run and every Combined run, merged to at most one run per table at
// the highest level among them, level 1 at least. Under tiered retention
// sealed Combined runs stay out — they are never re-merged: that would
// union their windows with newer records and push the result's MaxCP past
// the horizon forever, so nothing would ever expire.
//
// The output level keeps levels ordering history, higher levels older,
// which a stepped merge relies on (see emitLeveledGroup). Runs a
// checkpoint adds between the plan and the install start at level 0, and a
// stepped merge takes every run of the levels it merges, so lifting them
// past a level that holds an input consumes the input, and one of the two
// merges installs nothing. They therefore stay at or below the highest
// input level, where the outputs land.
func wholeJob(v *lsm.View, p int, tiered bool) CompactionJob {
	job := CompactionJob{
		Partition: p, Whole: true, OutputLevel: 1,
		From: v.Runs(TableFrom, p), To: v.Runs(TableTo, p),
	}
	for _, r := range v.Runs(TableCombined, p) {
		if !(tiered && r.Sealed()) {
			job.Combined = append(job.Combined, r)
		}
	}
	for _, runs := range [][]*lsm.Run{job.From, job.To, job.Combined} {
		for _, r := range runs {
			job.OutputLevel = max(job.OutputLevel, r.Level())
		}
	}
	return job
}

// inputs returns the job's input runs, every table's.
func (job CompactionJob) inputs() []*lsm.Run {
	return slices.Concat(job.From, job.To, job.Combined)
}

// worstWholeJob returns the whole-partition job with the most input runs
// and that count — the signal PolicyFull triggers on and MaintenanceStats
// reports as MaxRuns. Sealed runs are not inputs, so they do not count:
// counting them would keep the scheduler spinning on a partition it
// cannot shrink (a tiered partition steady-states at one From run plus
// one override run plus any number of sealed runs awaiting expiry).
func worstWholeJob(v *lsm.View, partitions int, tiered bool) (CompactionJob, int) {
	var worst CompactionJob
	max := 0
	for p := 0; p < partitions; p++ {
		job := wholeJob(v, p, tiered)
		if n := len(job.From) + len(job.To) + len(job.Combined); n > max {
			worst, max = job, n
		}
	}
	return worst, max
}

// PlanContext carries the engine configuration a policy plans against.
type PlanContext struct {
	// Partitions is the number of block-range partitions.
	Partitions int
	// Fanout is the effective stepped-merge fanout (PolicyLeveled's
	// trigger), already defaulted and clamped to >= 2.
	Fanout int
	// Tiered reports drop-based expiry (Options.Retention == RetainLive):
	// sealed Combined windows must stay individually droppable, so
	// policies must not plan merges that would re-open them.
	Tiered bool
	// Horizon is the reclaim horizon when Tiered (0 otherwise): no
	// consistency point below it is reachable from the snapshot catalog.
	// Combined runs droppable below the horizon are about to be reclaimed
	// whole by expiry and must never be merge inputs.
	Horizon uint64
	// Format is the run format the engine writes. A delta run in an older
	// format is work for every planner, even alone (see outdated); the
	// zero value plans no such work.
	Format btree.Format
}

// outdated reports whether r is a delta run in a format older than the
// one ctx writes: the format horizon, past which the reader of the next
// format bump need not reach. A raw run is the paper's layout, which the
// delta formats do not supersede.
func (ctx PlanContext) outdated(r *lsm.Run) bool {
	return r.Format() != btree.FormatRaw && r.Format() < ctx.Format
}

// idle is the planners' test of whether a whole merge is work: a job that
// would write its inputs back unchanged is not planned. A job with an
// outdated input is work whatever else holds — the clause every planner
// shares, alone the test of a lone run (see rewriteJobs). Otherwise a whole
// merge is idle when it would merge at most one Combined run and nothing
// else, or only what the partition's last whole merge left there against
// the topology that merge purged by (settled, see Engine.settledWhole). A
// stepped merge is planned by its level's shape instead (runShape.due).
func (ctx PlanContext) idle(job CompactionJob, settled bool) bool {
	if slices.ContainsFunc(job.inputs(), ctx.outdated) {
		return false
	}
	return settled || len(job.From) == 0 && len(job.To) == 0 && len(job.Combined) <= 1
}

// rewriteJobs appends to jobs, the ones a policy planned, a rewrite of
// every outdated run of partition p that none of them takes, at its level,
// record for record (Rewrite), so it keeps its CP window, as The Cascade
// Log has a rewritten run do, and expiry keeps naming the same things.
// A job rewrites at most one run of each table, all of one level, so the
// runs stay whole and a level's From, To and Combined runs become sections
// of one file, as a merge's outputs are. Under tiered retention a Combined
// run droppable below the horizon is left to expiry. Every planner ends
// with it, so a maintenance pass leaves no run older than the format the
// engine writes.
func rewriteJobs(v *lsm.View, ctx PlanContext, p int, jobs []CompactionJob) []CompactionJob {
	var taken map[*lsm.Run]bool
	var left [3][]*lsm.Run // per table, the outdated runs no job takes yet
	for i, table := range tables {
		for _, r := range v.Runs(table, p) {
			if !ctx.outdated(r) || (ctx.Tiered && ctx.Horizon > 0 && r.DroppableBelow(ctx.Horizon)) {
				continue
			}
			if taken == nil {
				taken = map[*lsm.Run]bool{}
				for _, job := range jobs {
					if job.Partition == p {
						for _, in := range job.inputs() {
							taken[in] = true
						}
					}
				}
			}
			if !taken[r] {
				left[i] = append(left[i], r)
			}
		}
	}
	for {
		first := slices.IndexFunc(left[:], func(runs []*lsm.Run) bool { return len(runs) > 0 })
		if first < 0 {
			return jobs
		}
		level := left[first][0].Level()
		var one [3][]*lsm.Run
		for i, runs := range left {
			if k := slices.IndexFunc(runs, func(r *lsm.Run) bool { return r.Level() == level }); k >= 0 {
				one[i] = []*lsm.Run{runs[k]}
				left[i] = slices.Delete(runs, k, k+1)
			}
		}
		jobs = append(jobs, CompactionJob{Partition: p, OutputLevel: level, Rewrite: true, From: one[iFrom], To: one[iTo], Combined: one[2]})
	}
}

// CompactionPolicy plans maintenance work from a pinned LSM view. Plan
// must be a pure function of the view and context — it is called with no
// structural lock held and its jobs are validated (and dropped if stale)
// by the executor, so a policy never needs to worry about races with
// checkpoints or queries. Returned jobs are executed in order; the
// scheduler re-plans after draining a batch, so a policy may emit only
// the most urgent work per call.
type CompactionPolicy interface {
	// Name identifies the policy in MaintenanceStats and tooling.
	Name() string
	Plan(v *lsm.View, ctx PlanContext) []CompactionJob
}

// FullThreshold is PolicyFull's trigger: the per-partition run count
// (summed across the From, To, and Combined tables) above which the
// partition is merged whole. A checkpoint adds one From run and, where
// references ended, one To run to a partition, on any host and at any
// shard count, so a partition merges at its fifth unmerged checkpoint —
// its fourth on top of the From and Combined runs an earlier merge left.
// It also bounds how stale queries can get between maintenance passes:
// the run count is what query cost scales with (Section 6.4).
const FullThreshold = 8

// PolicyFull is the compatibility default: merge the worst partition —
// the one with the most runs — down to at most one Combined and one From
// run, repeating (via re-planning) until no partition exceeds
// FullThreshold. This is the paper's Section 5.2 maintenance driven
// worst-first, exactly the behavior maintenance passes have always had,
// so paper-figure experiments pinned to it stay byte-identical. Its
// job is the one Compact plans per partition (wholeJob), on the one
// executor contract.
type PolicyFull struct{}

// Name implements CompactionPolicy.
func (PolicyFull) Name() string { return "full" }

// Plan emits the whole merge of the partition with the most mergeable
// runs, when over FullThreshold, and the rewrites of outdated runs (see
// rewriteJobs).
func (PolicyFull) Plan(v *lsm.View, ctx PlanContext) []CompactionJob {
	return planFull(v, ctx, FullThreshold)
}

// planFull is PolicyFull's plan at a given threshold. A fully compacted
// partition holds two runs (one From run of incomplete records plus one
// Combined run), so below 2 it would re-merge a minimal partition forever.
func planFull(v *lsm.View, ctx PlanContext, threshold int) []CompactionJob {
	var jobs []CompactionJob
	if worst, n := worstWholeJob(v, ctx.Partitions, ctx.Tiered); n > threshold {
		jobs = append(jobs, worst)
	}
	for p := 0; p < ctx.Partitions; p++ {
		jobs = rewriteJobs(v, ctx, p, jobs)
	}
	return jobs
}

// PolicyLeveled is stepped-merge maintenance (LogBase-style): when a
// table accumulates Fanout runs at level L of a partition — at Level 0,
// Fanout checkpoints' worth — all level-L runs of the partition merge into
// one run per table a level up. When that merge's outputs would bring
// level L+1 to the fanout too, the same job takes every run of L+1 as
// well and lands at L+2, and so on up the cascade, so a level the merge
// only passes through is never written. Each record is rewritten at most
// once per level instead of once per maintenance pass, so sustained ingest
// pays O(log_Fanout(runs)) write amplification instead of PolicyFull's
// O(runs) — at the cost of queries reading a few more runs between merges.
//
// Unlike a whole merge, a leveled merge sees only a slice of each
// identity's records, so unmatched records are carried verbatim to the
// output level (see emitLeveledGroup) and meet and join as they climb
// levels together.
//
// Under tiered retention, Combined runs already droppable below the
// reclaim horizon are never chosen as inputs: expiry is about to reclaim
// them for free, and merging one would fold its sealed window into a
// younger output that could then never be dropped.
type PolicyLeveled struct{}

// Name implements CompactionPolicy.
func (PolicyLeveled) Name() string { return "leveled" }

// Plan emits, per partition, one job for each cascade a due level starts
// (see planPartitionLevels), sorted by output level, then partition, and
// then the rewrites of outdated runs (see rewriteJobs).
func (PolicyLeveled) Plan(v *lsm.View, ctx PlanContext) []CompactionJob {
	var jobs []CompactionJob
	for p := 0; p < ctx.Partitions; p++ {
		jobs = append(jobs, planPartitionLevels(v, ctx, p)...)
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].OutputLevel != jobs[j].OutputLevel {
			return jobs[i].OutputLevel < jobs[j].OutputLevel
		}
		return jobs[i].Partition < jobs[j].Partition
	})
	for p := 0; p < ctx.Partitions; p++ {
		jobs = rewriteJobs(v, ctx, p, jobs)
	}
	return jobs
}

// planPartitionLevels groups one partition's runs by level and walks the
// levels upward. A due level (runShape.due) starts a job; while the job's
// predicted outputs (runShape.predicted) would make the level they land on
// due as well, the job takes that level's runs too and lands one level
// higher. A level a job has taken starts no job of its own. The inputs of
// a job are every run of a range of adjacent levels, so they are a
// contiguous slice of flush history, as a stepped merge needs (see
// emitLeveledGroup). So the job leaves the runs a merge per level would
// have left, unless a predicted From or To output comes out empty (every
// record in it joined): the job then lands higher than the level-by-level
// merges would have, which is as sound, only another layout.
func planPartitionLevels(v *lsm.View, ctx PlanContext, p int) []CompactionJob {
	levels := map[int]*CompactionJob{}
	at := func(level int) *CompactionJob {
		lr := levels[level]
		if lr == nil {
			lr = &CompactionJob{Partition: p, OutputLevel: level + 1}
			levels[level] = lr
		}
		return lr
	}
	for _, r := range v.Runs(TableFrom, p) {
		lr := at(r.Level())
		lr.From = append(lr.From, r)
	}
	for _, r := range v.Runs(TableTo, p) {
		lr := at(r.Level())
		lr.To = append(lr.To, r)
	}
	for _, r := range v.Runs(TableCombined, p) {
		if ctx.Tiered && ctx.Horizon > 0 && r.DroppableBelow(ctx.Horizon) {
			// Expiry will drop this run whole; merging it would destroy
			// the disjoint window that makes that possible.
			continue
		}
		lr := at(r.Level())
		lr.Combined = append(lr.Combined, r)
	}

	var jobs []CompactionJob
	taken := 0
	for _, level := range slices.Sorted(maps.Keys(levels)) {
		job := *levels[level]
		if level < taken || !shapeOf(job).due(ctx) {
			continue
		}
		for {
			above, ok := levels[job.OutputLevel]
			if !ok || !shapeOf(job).predicted(ctx).plus(shapeOf(*above)).due(ctx) {
				break
			}
			job.From = slices.Concat(job.From, above.From)
			job.To = slices.Concat(job.To, above.To)
			job.Combined = slices.Concat(job.Combined, above.Combined)
			job.OutputLevel++
		}
		taken = job.OutputLevel
		jobs = append(jobs, job)
	}
	return jobs
}

// runShape is what the planner reads off a set of runs: how many runs of
// each table it holds, and whether a Combined one carries override
// records.
type runShape struct {
	from, to, combined int
	overrides          bool
}

func shapeOf(job CompactionJob) runShape {
	s := runShape{from: len(job.From), to: len(job.To), combined: len(job.Combined)}
	for _, r := range job.Combined {
		s.overrides = s.overrides || r.Overrides() > 0
	}
	return s
}

func (s runShape) runs() int { return s.from + s.to + s.combined }

func (s runShape) plus(o runShape) runShape {
	return runShape{s.from + o.from, s.to + o.to, s.combined + o.combined, s.overrides || o.overrides}
}

// outputs bounds the outputs of a leveled merge of s: at most one From,
// one To, and one Combined run, plus a separate override run under tiered
// retention when an input actually carries override records (the merge
// never synthesizes them).
func (s runShape) outputs(ctx PlanContext) runShape {
	var out runShape
	if s.from > 0 {
		out.from = 1
	}
	if s.to > 0 {
		out.to = 1
	}
	if s.combined > 0 || (s.from > 0 && s.to > 0) {
		out.combined = 1
		out.overrides = s.overrides
	}
	if ctx.Tiered && s.overrides {
		out.combined++
	}
	return out
}

// predicted is the part of outputs a cascade counts on: a From run for
// From inputs, a To run for To inputs, and the Combined runs only for
// Combined inputs. Whether From and To inputs join into a Combined run
// shows only once they are read; a cascade that needed that run goes on
// in the re-plan after the job, as it would have merging level by level.
func (s runShape) predicted(ctx PlanContext) runShape {
	out := s.outputs(ctx)
	if s.combined == 0 {
		out.combined = 0
	}
	return out
}

// due reports whether a level of shape s is merged: some table reached the
// fanout, and the merge shrinks the run count — a merge that cannot would
// just climb levels forever, so the level waits until more runs arrive.
func (s runShape) due(ctx PlanContext) bool {
	if s.from < ctx.Fanout && s.to < ctx.Fanout && s.combined < ctx.Fanout {
		return false
	}
	return s.runs() > s.outputs(ctx).runs()
}
