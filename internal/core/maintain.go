package core

import (
	"time"

	"github.com/backlogfs/backlog/internal/lsm"
)

// maintainPace is the delay between consecutive compactions of one
// background maintenance pass. It keeps the maintainer from monopolizing
// I/O bandwidth and run-builder CPU when many jobs are pending at once —
// the "background, partition by partition" pacing of Section 5.3 — while
// still letting a pass finish promptly. A synchronous pass (MaintainNow)
// runs on its caller's goroutine, where a pause would only add idle wall
// time, so it never paces.
const maintainPace = 2 * time.Millisecond

// MaintenanceStats reports the background maintenance scheduler's
// activity and the current state of the signals it watches.
type MaintenanceStats struct {
	// Enabled reports whether the engine runs a background maintainer,
	// which it does exactly when Options.AutoCompact is set.
	Enabled bool
	// Policy names the active compaction policy ("full" or "leveled").
	Policy string
	// Fanout is the effective stepped-merge fanout (PolicyLeveled's
	// trigger).
	Fanout int
	// AutoCompactions counts merges installed by maintenance passes
	// (background or MaintainNow).
	AutoCompactions uint64
	// Conflicts counts merges (background or foreground) that found an
	// input consumed by another merge or an expiry, or a deletion vector
	// moved by a relocation, and installed nothing. The job goes back to
	// its planner: Compact plans the partition's whole merge again, the
	// maintainer re-plans after its round. A checkpoint landing mid-merge
	// is not a conflict.
	Conflicts uint64
	// Errors counts maintenance passes (background or MaintainNow)
	// abandoned on error.
	Errors uint64
	// MaxRuns is the current worst per-partition run count.
	MaxRuns int
	// PendingJobs is the number of jobs the active policy would plan
	// right now — zero means maintenance is caught up. This, not MaxRuns,
	// is the idle signal: under PolicyLeveled a drained partition keeps one
	// run per level, which can legitimately exceed FullThreshold.
	PendingJobs int
}

// maintainer is the background maintenance scheduler: a single goroutine
// that, whenever kicked (after every checkpoint), runs one maintenance
// pass (see maintainPass). Because
// compaction merges against a pinned view outside the structural lock,
// the maintainer's work does not stall updates or queries — it replaces
// the stop-the-world full-pass maintenance the paper's prototype
// performed between benchmark phases.
type maintainer struct {
	e    *Engine
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

func newMaintainer(e *Engine) *maintainer {
	m := &maintainer{
		e:    e,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go m.loop()
	return m
}

// kickNow schedules a maintenance pass without blocking; a pass already
// pending absorbs the kick.
func (m *maintainer) kickNow() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// close stops the scheduler and waits for an in-flight pass to finish.
// Callers must not hold the structural lock: a running compaction needs
// it briefly to install or discard its result. A pass pacing between
// jobs wakes immediately instead of sleeping out its delay.
func (m *maintainer) close() {
	close(m.stop)
	<-m.done
}

func (m *maintainer) loop() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case <-m.kick:
		}
		m.e.maintainPass(m.stop)
	}
}

// MaintainNow runs one maintenance pass on the caller's goroutine, the
// pass the background maintainer runs after every checkpoint. It is the
// deterministic counterpart of the maintainer for tests and experiments,
// and runs regardless of Options.AutoCompact.
func (e *Engine) MaintainNow() error {
	return e.maintainPass(nil)
}

// maintainPass is one maintenance pass: it reaps zombie snapshots, runs
// the compactions the configured policy plans, re-planning until the plan
// drains, and commits now (see commitNow) — a catalog change no merge
// carried and, under RetainLive, the runs the merges left droppable. A nil
// stop channel marks the synchronous caller: the pass is never aborted
// and never paces between merges; an aborted pass leaves its commit to
// Close.
func (e *Engine) maintainPass(stop <-chan struct{}) error {
	e.catalog.ReapZombies()
	aborted, err := e.drainCompactions(stop)
	if err != nil || aborted {
		// Abandon the pass; the next checkpoint kicks a retry.
		return err
	}
	if _, err := e.commitNow(); err != nil {
		e.stats.maintErrors.Add(1)
		return err
	}
	return nil
}

// drainCompactions executes policy-planned jobs until the plan is empty
// or a full round of jobs makes no progress. A job that installs nothing
// (stale, in conflict, or deferred by a dirty deletion vector) comes back
// here, its planner: the round goes on with its next job, the next round
// re-plans from a fresh view, and a round in which none installed ends
// the pass (the next kick re-plans). Every installed merge strictly
// shrinks the total run count, so the loop terminates.
func (e *Engine) drainCompactions(stop <-chan struct{}) (aborted bool, err error) {
	pol := e.policy()
	for {
		jobs := e.planJobs(pol.Plan)
		if len(jobs) == 0 {
			return false, nil
		}
		progress := false
		for _, job := range jobs {
			select {
			case <-stop:
				return true, nil
			default:
			}
			installed, err := e.compactJob(job)
			if err != nil {
				e.stats.maintErrors.Add(1)
				return false, err
			}
			if !installed {
				continue
			}
			progress = true
			e.stats.autoCompactions.Add(1)
			if stop != nil {
				select {
				case <-stop:
					return true, nil
				case <-time.After(maintainPace):
				}
			}
		}
		if !progress {
			return false, nil
		}
	}
}

// planJobs pins a view and asks plan for work: a policy's Plan, or
// compactWhole's plan of one partition's whole merge. A dirty deletion
// vector defers all planning — compaction is deferred anyway (see
// compactJob), and the next checkpoint both persists the vector and
// kicks the maintainer. The returned jobs hold run pointers from a view
// released before execution; executors re-validate them against a fresh
// view before reading.
func (e *Engine) planJobs(plan func(*lsm.View, PlanContext) []CompactionJob) []CompactionJob {
	ctx := PlanContext{
		Partitions: e.db.Partitions(),
		Fanout:     e.fanout(),
		Tiered:     e.expiryEnabled(),
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

// MaintenanceStats returns a snapshot of the background maintainer's
// counters plus the two signals policies watch: the worst per-partition
// run count (sealed runs excluded under RetainLive) and the number of
// jobs the active policy would plan right now. Safe to call
// concurrently; meaningful (Enabled=false, zero counters) without
// AutoCompact too.
func (e *Engine) MaintenanceStats() MaintenanceStats {
	e.mu.RLock()
	v := e.db.AcquireView()
	e.mu.RUnlock()
	_, max := worstWholeJob(v, e.db.Partitions(), e.expiryEnabled())
	v.Release()
	pol := e.policy()
	return MaintenanceStats{
		Enabled:         e.maint != nil,
		Policy:          pol.Name(),
		Fanout:          e.fanout(),
		AutoCompactions: e.stats.autoCompactions.Load(),
		Conflicts:       e.stats.compactConflicts.Load(),
		Errors:          e.stats.maintErrors.Load(),
		MaxRuns:         max,
		PendingJobs:     len(e.planJobs(pol.Plan)),
	}
}
