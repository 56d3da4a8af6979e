package core

import "github.com/backlogfs/backlog/internal/lsm"

// MaintenanceStats reports what maintenance passes have done and the
// current state of the signals the compaction policy watches.
type MaintenanceStats struct {
	// Policy names the active compaction policy ("full" or "leveled").
	Policy string
	// Fanout is the effective stepped-merge fanout (PolicyLeveled's
	// trigger).
	Fanout int
	// AutoCompactions counts merges installed by maintenance passes
	// (MaintainNow).
	AutoCompactions uint64
	// Conflicts counts merges (Compact's or a maintenance pass's) that
	// found an input consumed by another merge or an expiry, or a deletion
	// vector moved by a relocation, and installed nothing. The job goes
	// back to its planner: Compact plans the partition's whole merge
	// again, a maintenance pass re-plans after its round. A checkpoint
	// landing mid-merge is not a conflict.
	Conflicts uint64
	// Errors counts maintenance passes abandoned on error.
	Errors uint64
	// MaxRuns is the current worst per-partition run count.
	MaxRuns int
	// PendingJobs is the number of jobs the active policy would plan
	// right now — zero means maintenance is caught up. This, not MaxRuns,
	// is the idle signal: under PolicyLeveled a drained partition keeps one
	// run per level, which can legitimately exceed FullThreshold.
	PendingJobs int
}

// MaintainNow runs one maintenance pass on the caller's goroutine: it
// reaps zombie snapshots and runs the compactions the configured policy
// plans, re-planning until the plan drains. It writes no manifest: each
// merge installs in memory (see compactJob), and the merges, the reaped
// catalog and, under RetainLive, the runs they left droppable become
// durable with the next commit — a Checkpoint, Compact, Expire or Close.
// A crash before that reopens the store as the last commit left it, which
// answers every query the same. Maintenance runs only when a caller asks:
// the engine starts no goroutine, so a host that wants it in the
// background calls MaintainNow from a goroutine of its own. Merges run
// against a pinned view outside the structural lock, so updates and
// queries keep flowing meanwhile.
func (e *Engine) MaintainNow() error {
	e.catalog.ReapZombies()
	return e.drainCompactions()
}

// drainCompactions executes policy-planned jobs until the plan is empty
// or a full round of jobs makes no progress. A job that installs nothing
// (stale, in conflict, or deferred by a dirty deletion vector) comes back
// here, its planner: the round goes on with its next job, the next round
// re-plans from a fresh view, and a round in which none installed ends
// the pass (the next pass re-plans). Every installed merge strictly
// shrinks the total run count or, a rewrite, the count of outdated runs,
// so the loop terminates.
func (e *Engine) drainCompactions() error {
	pol := e.policy()
	for {
		jobs := e.planJobs(pol.Plan)
		if len(jobs) == 0 {
			return nil
		}
		progress := false
		for _, job := range jobs {
			installed, err := e.compactJob(job)
			if err != nil {
				e.stats.maintErrors.Add(1)
				return err
			}
			if installed {
				progress = true
				e.stats.autoCompactions.Add(1)
			}
		}
		if !progress {
			return nil
		}
	}
}

// planJobs pins a view and asks plan for work: a policy's Plan, or
// compactWhole's plan of one partition's whole merge. A dirty deletion
// vector defers all planning — compaction is deferred anyway (see
// compactJob), and the next checkpoint persists the vector, after which
// a pass plans again. The returned jobs hold run pointers from a view
// released before execution; executors re-validate them against a fresh
// view before reading.
func (e *Engine) planJobs(plan func(*lsm.View, PlanContext) []CompactionJob) []CompactionJob {
	ctx := PlanContext{
		Partitions: e.db.Partitions(),
		Fanout:     e.fanout(),
		Tiered:     e.expiryEnabled(),
		Format:     e.opts.Compression.runFormat(),
	}
	e.mu.RLock()
	if e.dvDirty() {
		e.mu.RUnlock()
		return nil
	}
	v, topo := e.db.AcquireView(), e.catalog.Topology()
	e.mu.RUnlock()
	defer v.Release()
	if ctx.Tiered {
		ctx.Horizon = reclaimHorizon(topo)
	}
	return plan(v, ctx)
}

// policy returns the configured compaction policy, defaulting to
// PolicyFull — the paper's whole-partition maintenance.
func (e *Engine) policy() CompactionPolicy {
	if e.opts.CompactionPolicy != nil {
		return e.opts.CompactionPolicy
	}
	return PolicyFull{}
}

// fanout returns the effective stepped-merge fanout. Below 2 a merge
// could not shrink a level; such values are clamped.
func (e *Engine) fanout() int {
	f := e.opts.Fanout
	if f <= 0 {
		f = DefaultFanout
	}
	if f < 2 {
		f = 2
	}
	return f
}

// MaintenanceStats returns a snapshot of the maintenance counters plus
// the two signals policies watch: the worst per-partition run count
// (sealed runs excluded under RetainLive) and the number of jobs the
// active policy would plan right now. Safe to call concurrently.
func (e *Engine) MaintenanceStats() MaintenanceStats {
	e.mu.RLock()
	v := e.db.AcquireView()
	e.mu.RUnlock()
	_, max := worstWholeJob(v, e.db.Partitions(), e.expiryEnabled())
	v.Release()
	pol := e.policy()
	return MaintenanceStats{
		Policy:          pol.Name(),
		Fanout:          e.fanout(),
		AutoCompactions: e.stats.autoCompactions.Load(),
		Conflicts:       e.stats.compactConflicts.Load(),
		Errors:          e.stats.maintErrors.Load(),
		MaxRuns:         max,
		PendingJobs:     len(e.planJobs(pol.Plan)),
	}
}
