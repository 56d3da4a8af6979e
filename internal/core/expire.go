package core

import (
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// Drop-based snapshot expiry. When every snapshot that could reference a
// Combined run's records has been deleted, the run as a whole is garbage:
// masking (Section 4.2.1) would filter every record in it. Compaction
// eventually discovers that record by record, reading and rewriting the
// survivors; expiry instead drops whole runs by manifest edit — no record
// is ever read — once the run's consistency-point window [MinCP, MaxCP]
// falls entirely below the oldest CP still reachable from the catalog's
// snapshot/clone graph. Runs become eligible through CP-tiered background
// compaction, which seals finished windows instead of re-merging them
// (see compact.go).

// ExpireStats reports what one Expire pass did.
type ExpireStats struct {
	// Horizon is the reclaim horizon used: the oldest CP still reachable
	// from the catalog (Infinity when no snapshot or zombie exists — then
	// only the live head pins records, and every sealed run is garbage).
	Horizon uint64
	// RunsDropped is the number of runs removed from the manifest.
	RunsDropped int
	// RecordsDropped is the number of records inside those runs; none of
	// them was read.
	RecordsDropped uint64
	// DVEntriesDropped counts deletion-vector entries garbage-collected in
	// the same manifest commit because the only runs that could contain
	// their records were dropped.
	DVEntriesDropped int
	// Deferred is set when the pass ran at an unsafe moment — a checkpoint
	// flush in flight or a dirty deletion vector whose entries are not yet
	// crash-durable — and did nothing. The caller (normally the background
	// maintainer) simply retries after the next checkpoint.
	Deferred bool
}

// reclaimHorizon returns the expiry horizon of topo: the oldest
// consistency point still reachable from its snapshot/clone graph, or
// Infinity when nothing is retained (then only live-head records matter,
// and every completed interval is reclaimable). A Combined run whose window
// lies strictly below the horizon cannot contribute to any query result
// masked against topo — every record in it describes an interval that
// ended before the oldest snapshot.
func reclaimHorizon(topo *Topology) uint64 {
	if v, ok := topo.OldestReachable(); ok {
		return v
	}
	return Infinity
}

// Expire atomically drops every Combined run whose consistency-point
// window falls entirely below the reclaim horizon. The drop is one
// manifest edit: no run is read or rewritten, deletion-vector entries
// pointing only into dropped runs are garbage-collected in the same
// commit, and the run files themselves are deleted only after the last
// pinned view referencing them is released — concurrent queries and
// compactions keep iterating their snapshots unharmed.
//
// Expire defers (returning Deferred with no error) while a checkpoint
// flush is in flight or the Combined table's deletion vector is dirty: a
// dirty vector's entries are paired with not-yet-durable write-store
// records (see RelocateBlock), and persisting a pruned copy early would
// let a crash resurrect relocated-away records. The background maintainer
// retries after every checkpoint, which is exactly when the vector comes
// clean.
func (e *Engine) Expire() (ExpireStats, error) {
	if o := e.obs; o != nil {
		start := o.opStart(obs.OpExpire, -1, 0, 0)
		st, err := e.expire()
		o.opEnd(obs.OpExpire, -1, 0, 0, start, o.expire, err)
		return st, err
	}
	return e.expire()
}

func (e *Engine) expire() (ExpireStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shards[0].frozen != nil || e.db.Table(TableCombined).DVDirty() {
		return ExpireStats{Deferred: true}, nil
	}
	st := ExpireStats{Horizon: reclaimHorizon(e.catalog.Topology())}
	edit := e.db.NewEdit().SetSource(storage.SrcExpiry)
	runs, recs := edit.DropRunsBelow(TableCombined, st.Horizon)
	if runs == 0 {
		// Nothing to drop; skip the manifest write entirely.
		return st, nil
	}
	if err := edit.Commit(); err != nil {
		return st, err
	}
	st.RunsDropped = runs
	st.RecordsDropped = recs
	st.DVEntriesDropped = edit.CollectedDVEntries()
	e.stats.expiries.Add(1)
	e.stats.runsExpired.Add(uint64(runs))
	e.stats.recordsExpired.Add(recs)
	return st, nil
}
