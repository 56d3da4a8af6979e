package core

import "github.com/backlogfs/backlog/internal/lsm"

// CacheBytes is the bytes charged to the engine's page cache, for the
// external tests of what written-through pages do when a commit fails.
func (e *Engine) CacheBytes() int64 { return e.cache.SizeBytes() }

// CompactJob runs one merge job as a maintenance pass does, CP-tiered under
// RetainLive: mergefile_test.go lays out a tiered stepped merge's files
// with it, and compact_test.go executes a job planned before a checkpoint.
func (e *Engine) CompactJob(job CompactionJob) (bool, error) { return e.compactJob(job) }

// PolicyFullAt is PolicyFull's plan at another trigger threshold, for the
// tests that want a partition merged before its FullThreshold-th run, the
// way cascade_test.go and leveled_test.go substitute policies of their
// own. A threshold below 2 re-merges a minimal partition forever.
type PolicyFullAt struct{ Threshold int }

// Name implements CompactionPolicy.
func (PolicyFullAt) Name() string { return "full" }

// Plan implements CompactionPolicy.
func (p PolicyFullAt) Plan(v *lsm.View, ctx PlanContext) []CompactionJob {
	return planFull(v, ctx, p.Threshold)
}

// PlanJobs plans pol's jobs as a maintenance pass does, for the tests that
// execute a job after the store has moved on from its plan.
func (e *Engine) PlanJobs(pol CompactionPolicy) []CompactionJob { return e.planJobs(pol.Plan) }
