package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// Compact runs database maintenance on every partition (Section 5.2): it
// merges all read-store runs, precomputes the Combined table by joining
// From and To, purges records that refer only to deleted snapshots, and
// physically drops deletion-vector entries. Of the runs a merge read, each
// partition keeps at most one Combined run (complete records) and one From
// run (incomplete records), and no To run, sections of one file written
// and synced once; runs a checkpoint added since the merge was planned
// stay beside them at level 0.
//
// Each partition's merge is planned from a pinned view, as a maintenance
// pass plans its jobs, and runs exactly the inputs it was planned with.
// An attempt that installs nothing — an input consumed since the
// plan, a conflict at install, or a dirty deletion vector — goes back to
// the planner: the partition is planned again, and a plan that finds
// nothing to merge ends its maintenance.
//
// Partitions are maintained independently: a failure in one partition does
// not stop the pass, and the joined error reports every partition that
// failed. Stats.Compactions counts merges installed.
//
// While any deletion vector carries unpersisted entries (a block
// relocation since the last checkpoint), compaction is deferred (see
// compactJob). Call Checkpoint first.
//
// Zombie snapshots are reaped first. Each merge installs in memory (see
// compactJob), and the call ends with one commit (see commitNow) whatever
// the partition count: every merge with the live catalog and, under
// RetainLive, the runs the merges left droppable. Under RetainLive the
// merges are CP-tiered: sealed Combined runs (see lsm.Run.Sealed) are left
// untouched instead of being re-merged, so their windows stay disjoint and
// a commit can drop them whole once the reclaim horizon passes their MaxCP.
// Everything else (From, To, unsealed Combined runs, the override run)
// merges exactly as untiered; the merged Combined output is split so
// override records land in their own run, keeping the regular output
// sealed, and each of the two is a file of its own.
func (e *Engine) Compact() error {
	e.catalog.ReapZombies()
	var errs []error
	for p := 0; p < e.db.Partitions(); p++ {
		if err := e.compactWhole(p); err != nil {
			errs = append(errs, fmt.Errorf("core: compacting partition %d: %w", p, err))
		}
	}
	_, err := e.commitNow(commitEmpty)
	return errors.Join(append(errs, err)...)
}

// compactWhole plans and runs the whole-partition merge of p until one
// installs or a plan finds nothing to merge (see Compact). The loop needs
// no lock to make progress: an input consumed or a conflict is another
// commit's install, and a deletion vector moved by a relocation defers the
// next plan until a checkpoint persists it.
func (e *Engine) compactWhole(p int) error {
	plan := func(v *lsm.View, ctx PlanContext) []CompactionJob {
		job := wholeJob(v, p, ctx.Tiered)
		if ctx.idle(job, e.settledWhole(v, job)) {
			// Nothing to merge; at most the single compacted Combined run
			// (in tiered mode, possibly plus sealed runs awaiting expiry),
			// or what the last whole merge left, which a merge would write
			// again unchanged.
			return nil
		}
		return []CompactionJob{job}
	}
	for {
		jobs := e.planJobs(plan)
		if len(jobs) == 0 {
			return nil
		}
		if compacted, err := e.compactJob(jobs[0]); compacted || err != nil {
			return err
		}
	}
}

// settledPart is what a whole merge of a partition left there (wholeJob's
// inputs as of right after its install) and the topology it purged against.
type settledPart struct {
	topo        *Topology
	from, combs []*lsm.Run
}

// settledWhole reports whether job, a whole merge of its partition, would
// write its inputs again unchanged: they are what the last whole merge of
// the partition left there — its outputs, so in the format the engine
// writes — the catalog's topology is the one that merge purged against,
// and no deletion-vector entry lies in their block ranges. A lone From run
// is no work then, nor is one beside the Combined run.
func (e *Engine) settledWhole(v *lsm.View, job CompactionJob) bool {
	s := e.settled[job.Partition].Load()
	if s == nil || len(job.To) > 0 || s.topo != e.catalog.Topology() ||
		!slices.Equal(job.From, s.from) || !slices.Equal(job.Combined, s.combs) {
		return false
	}
	for i, runs := range [][]*lsm.Run{job.From, nil, job.Combined} {
		for _, r := range runs {
			if v.Hides(tables[i], r) {
				return false
			}
		}
	}
	return true
}

// dvDirty reports whether any table carries unpersisted deletion-vector
// entries. Callers hold the structural lock (shared suffices).
func (e *Engine) dvDirty() bool {
	for _, table := range tables {
		if e.db.Table(table).DVDirty() {
			return true
		}
	}
	return false
}

// groupRecs is one identity group pulled from the three merged streams.
type groupRecs struct {
	id        Ref // identity fields only (CP fields zero)
	froms     []uint64
	tos       []uint64
	combineds []interval
}

// addedBytes sums the physical size of freshly installed compaction
// outputs — the numerator of measured write amplification.
func addedBytes(added []lsm.RunRef) uint64 {
	var n int64
	for _, r := range added {
		n += r.SizeBytes()
	}
	return uint64(n)
}

// viewHasRuns reports whether every run in inputs is present in the
// view's pinned list for (table, partition) — the read-safety check the
// executor performs after re-pinning: membership keeps the run file
// alive for the duration of the view.
func viewHasRuns(v *lsm.View, table string, p int, inputs []*lsm.Run) bool {
	live := v.Runs(table, p)
	for _, in := range inputs {
		if !slices.Contains(live, in) {
			return false
		}
	}
	return true
}

// compactJob executes one merge job — every merge in the engine, whatever
// planned it, runs here, once, on exactly the inputs the job names. The
// k-way merge and run building happen against a pinned view with no
// structural lock held, so updates, queries and checkpoints proceed during
// the bulk of the work; the lock is taken shared only to pin the view.
// The install validates the inputs and opens the outputs under cpMu,
// waiting out a flushing checkpoint, and takes the lock exclusively only
// for the swap. It writes no manifest: the merge becomes durable with the
// next commit — a Checkpoint, Compact, Expire or Close — and a crash
// before that reopens the store with the merge's inputs, its outputs
// collected as orphans. compacted reports an installed merge. A job
// that installs nothing returns compacted=false and goes back to whoever planned it: it
// is stale (an input consumed since the plan), deferred by a dirty
// deletion vector, or in conflict (another merge or an expiry consumed an
// input during the merge, or a relocation moved a deletion vector), which
// is counted in Stats. Under RetainLive the output is CP-tiered (see
// Compact).
func (e *Engine) compactJob(job CompactionJob) (compacted bool, err error) {
	if o := e.obs; o != nil {
		// Trace events reuse the Shard field for the partition — the
		// closest analogue of "which slice of the keyspace" for a
		// compaction.
		start := o.opStart(obs.OpCompact, job.Partition, 0, 0)
		defer func() { o.opEnd(obs.OpCompact, job.Partition, 0, 0, start, o.compact, err) }()
	}
	p := job.Partition
	e.mu.RLock()
	// A dirty deletion vector defers compaction of the whole table set: the
	// unpersisted entries hide records whose re-keyed replacements (block
	// relocation) still sit in the volatile write stores. Physically purging
	// the hidden records and durably clearing their entries now would make
	// the destruction durable while the replacements are not — a crash then
	// loses the references outright, and the relocation's WAL record cannot
	// re-transplant records that no longer exist in any run. The next
	// checkpoint persists vector and replacements together, after which
	// compaction proceeds.
	if e.dvDirty() {
		e.mu.RUnlock()
		return false, nil
	}
	// The merge purges against the topology it pins with its view (see
	// keepInterval for why a newer one may land in the same commit).
	v, topo := e.db.AcquireView(), e.catalog.Topology()
	e.mu.RUnlock()
	defer v.Release()

	// A job's run pointers come from the plan's view, already released;
	// they are only safe to read while live in this one.
	if !viewHasRuns(v, TableFrom, p, job.From) ||
		!viewHasRuns(v, TableTo, p, job.To) ||
		!viewHasRuns(v, TableCombined, p, job.Combined) {
		return false, nil
	}
	inputs := [3][]*lsm.Run{job.From, job.To, job.Combined}

	var streams [3]*recStream
	for i, runs := range inputs {
		it, err := v.MergedIterOf(tables[i], runs)
		if err != nil {
			return false, err
		}
		streams[i] = &recStream{it: it}
		if err := streams[i].advance(); err != nil {
			return false, err
		}
	}

	// The outputs are runs of one file set, the From, To and Combined runs
	// sections of one file; each file is created on its first record, so an
	// output that stays empty costs nothing. Every complete interval the
	// join emits consumes a To or a Combined input, every incomplete one a
	// From: the input totals bound the outputs, which is what sizes their
	// Bloom filters.
	set := e.db.NewFileSet(job.OutputLevel, v.CP(), storage.SrcCompaction, tables[:]...)
	expectComb := recordsIn(job.To, job.Combined)
	newFrom := set.Run(TableFrom, p, recordsIn(job.From))
	// A whole merge closes every lone To into an override record, so it
	// has no To output; the table is empty afterwards.
	var newTo *lsm.RunBuilder
	if !job.Whole {
		newTo = set.Run(TableTo, p, recordsIn(job.To))
	}
	// Tiered mode keeps the Combined output in a file of its own, which a
	// commit drops alone once its window passes the horizon, and writes
	// surviving override records to a run of their own, in a file of its
	// own too: overrides must outlive their line's snapshots, so mixing them
	// into the regular output would poison its droppability. The override
	// run (Overrides > 0) is re-merged on every tiered whole merge, which is
	// also what purges overrides once their line is fully gone. A partial
	// merge never synthesizes overrides, so there the builder stays empty
	// (and writes no run) unless an input carried them.
	var newComb, newOver *lsm.RunBuilder
	if e.expiryEnabled() {
		newComb = set.RunApart(TableCombined, p, expectComb)
		newOver = set.RunApart(TableCombined, p, expectComb)
	} else {
		newComb = set.Run(TableCombined, p, expectComb)
	}
	abort := func(err error) (bool, error) {
		set.Abort()
		return false, err
	}

	// Purged records are counted locally and added to the stats only once
	// the merge installs, so a merge that installs nothing counts none.
	var purged uint64
	if job.Rewrite {
		err = copyRecords(streams, newFrom, newTo, newComb)
	} else {
		err = joinRecords(topo, streams, job.Whole, newFrom, newTo, newComb, newOver, &purged)
	}
	if err != nil {
		return abort(err)
	}

	// Write and sync the files before taking the lock: file I/O stays out
	// of the critical section. A failed Finish removes the set's files.
	added, err := set.Finish()
	if err != nil {
		return false, err
	}

	// One rule validates every merge: each input is still live and the
	// deletion vectors have not moved since the pin. A relocation moves a
	// vector; another merge or an expiry consumes an input. Runs added
	// beside the inputs since the plan (a checkpoint's) do not invalidate
	// the merge. A partial merge joins only pairs both of whose ends it
	// read, so for it this is plain. A whole merge also closes lone ends,
	// judging by the runs it read alone — the partition's whole history as
	// of the plan's view — and that is sound too: a From is applied before
	// its To, and a generation flushes no later than the ones after it (a
	// failed flush merges back into the next), so the From of every To in
	// that view is in it as well. A run added since holds only newer
	// history: its Tos pair with Froms the merge wrote out still incomplete
	// (or purged only where the lone To reads as nothing either, see
	// emitLeveledGroup), and it stays at or below the merge's output level
	// (see wholeJob). cpMu, which every commit and every relocation takes,
	// keeps the validated state still until the install has swapped the
	// outputs in; a checkpoint flushing now finishes first.
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	for i, runs := range inputs {
		if !v.UnchangedRuns(tables[i], p, runs) {
			// The built runs describe a stale state.
			set.Abort()
			e.stats.compactConflicts.Add(1)
			return false, nil
		}
	}

	// Install: the inputs are live, so the edit swaps exactly them for the
	// outputs and collects the deletion-vector entries the merge consumed.
	// It is an install in memory: the outputs hold only records some commit
	// already made durable, so the manifest keeps naming the inputs, whose
	// files stay, until the next commit writes the live runs (see commit).
	// The outputs are opened before the lock is taken; an edit that fails
	// to open them has changed nothing and removed the output files.
	edit := e.db.NewEdit().SetSource(storage.SrcCompaction)
	for _, ref := range added {
		edit.AddRun(ref)
	}
	for i, runs := range inputs {
		for _, r := range runs {
			edit.DropRun(tables[i], r.Name())
		}
	}
	if err := edit.Prepare(); err != nil {
		return false, err
	}
	e.mu.Lock()
	reclaim := edit.Install()
	e.mu.Unlock()
	reclaim()
	if job.Whole {
		// cpMu keeps every other install out: the partition holds what
		// this merge left, and runs a checkpoint added beside them.
		e.mu.RLock()
		after := e.db.AcquireView()
		e.mu.RUnlock()
		left := wholeJob(after, p, e.expiryEnabled())
		after.Release()
		e.settled[p].Store(&settledPart{topo: topo, from: left.From, combs: left.Combined})
	}
	e.stats.compactions.Add(1)
	e.stats.recordsPurged.Add(purged)
	e.stats.compactWriteBytes.Add(addedBytes(added))
	return true, nil
}

// copyRecords copies a rewrite's input of each table, record for record,
// into the output of its table.
func copyRecords(streams [3]*recStream, outs ...*lsm.RunBuilder) error {
	for i, s := range streams {
		for s.ok {
			if err := outs[i].Add(s.cur); err != nil {
				return err
			}
			if err := s.advance(); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinRecords merges the three streams group by group (see
// emitLeveledGroup).
func joinRecords(topo *Topology, streams [3]*recStream, whole bool, newFrom, newTo, newComb, newOver *lsm.RunBuilder, purged *uint64) error {
	for {
		g, ok, err := nextGroup(streams[0], streams[1], streams[2])
		if err != nil || !ok {
			return err
		}
		if err := emitLeveledGroup(topo, g, whole, newFrom, newTo, newComb, newOver, purged); err != nil {
			return err
		}
	}
}

// emitLeveledGroup joins one identity group (pairGroup, the rule queries
// use), applies the purge policy and writes the surviving records.
//
// What happens to a record left without a partner depends on whether the
// merge saw the partition's whole From/To history. If it did (whole), a
// lone To is an inheritance override — the implicit from = 0 of Section
// 4.2.2 — and a lone From a still-live reference subject to the purge
// policy. If it did not, the merge joins only the pairs with both ends
// present — exactly the pairs the global join would form, because a level
// merge always inputs every run of its level and levels partition flush
// history into contiguous, monotonically ordered segments — and carries
// unmatched records verbatim to the output level: synthesizing the
// override for an unmatched To, or purging an unmatched From, would
// corrupt the eventual join with the counterpart record still climbing
// the levels in another run.
//
// When newOver is non-nil (tiered mode), override records (from == 0) go
// to it instead of newComb, so the regular Combined output stays free of
// overrides and therefore sealed. Purged records are tallied into *purged.
func emitLeveledGroup(topo *Topology, g groupRecs, whole bool, newFrom, newTo, newComb, newOver *lsm.RunBuilder, purged *uint64) error {
	id, line := g.id, g.id.Line
	complete, loneFroms, loneTos := pairGroup(g.froms, g.tos)
	if whole {
		for _, t := range loneTos {
			complete = append(complete, interval{from: 0, to: t})
		}
		loneTos = nil
	}

	// Completed pairs and pre-joined Combined records are globally
	// correct, so the full purge policy applies to them.
	complete = dedupeIntervals(append(complete, g.combineds...))
	for _, iv := range complete {
		if !keepInterval(topo, line, iv.from, iv.to) {
			*purged++
			continue
		}
		dst := newComb
		if newOver != nil && iv.from == 0 {
			dst = newOver
		}
		if err := dst.Add(EncodeCombined(CombinedRec{Ref: id, From: iv.from, To: iv.to})); err != nil {
			return err
		}
	}
	// A lone From is [f, Infinity) only until its To arrives — and the To may
	// already sit in the write store, removed in the CP that deleted the
	// line. Purged alone, the From would leave that To to read as an
	// override [0, t): it would answer for the line's snapshots before f and
	// hand the reference to clones based before f. So a lone From is purged
	// only once its line is no longer needed, when [0, t) is as invisible
	// as [f, t). A deleted line's snapshots older than f therefore keep the
	// From after its To has been flushed too; that retention ends with those
	// snapshots (and the clones based on them), and is accepted.
	for _, f := range loneFroms {
		if whole && !keepInterval(topo, line, 0, Infinity) {
			*purged++
			continue
		}
		if err := newFrom.Add(EncodeFrom(FromRec{Ref: id, From: f})); err != nil {
			return err
		}
	}
	for _, t := range loneTos {
		if err := newTo.Add(EncodeTo(ToRec{Ref: id, To: t})); err != nil {
			return err
		}
	}
	return nil
}

// keepInterval decides whether a record with validity [from, to) on line
// must survive compaction under topo. It survives when any retained snapshot
// falls in the interval, when the line's live file system still holds the
// reference, when a clone base (including zombie snapshots) inside the
// interval pins it for inheritance, or when it is an override record
// (from == 0) of a line that is still needed — purging an override would
// resurrect inheritance the file system explicitly terminated.
//
// topo is the one the merge pinned with its view, and the commit that
// makes the merge durable carries the catalog's newer, live topology, never
// the pinned one: were a merge that pinned T0 to commit T0 after a
// checkpoint or an Expire had committed T1, a crash would bring back what
// T1 deleted. Purging against
// the older T0 is safe because the topology only ever comes to keep fewer
// of a merge's input records: a deleted snapshot or line and a reaped
// zombie keep less; a new snapshot is taken at the CP being taken, on a
// live line (MemCatalog.CreateSnapshot), which no finite interval of a run
// covers and whose live line kept its open intervals already; and a new
// clone's base is a snapshot that T0 retained, so the intervals covering it
// were kept, or one taken since, which none covers.
func keepInterval(topo *Topology, line, from, to uint64) bool {
	if len(topo.SnapshotsIn(line, from, to)) > 0 {
		return true
	}
	if to == Infinity && topo.IsLive(line) {
		return true
	}
	if topo.PinnedIn(line, from, to) {
		return true
	}
	if from == 0 {
		// Override record: keep while the line can still inherit.
		if topo.IsLive(line) || len(topo.SnapshotsIn(line, 0, Infinity)) > 0 ||
			topo.PinnedIn(line, 0, Infinity) {
			return true
		}
	}
	return false
}

// recordsIn totals the records of the given run lists.
func recordsIn(lists ...[]*lsm.Run) int {
	var n uint64
	for _, runs := range lists {
		for _, r := range runs {
			n += r.Records()
		}
	}
	return int(n)
}

// recStream is a peekable decoded record stream used by the group merge.
type recStream struct {
	it  lsm.RecIter
	cur []byte
	ok  bool
}

func (s *recStream) advance() error {
	rec, ok, err := s.it.Next()
	if err != nil {
		return err
	}
	if !ok {
		s.ok = false
		s.cur = nil
		return nil
	}
	s.cur = append(s.cur[:0], rec...)
	s.ok = true
	return nil
}

// nextGroup pulls the smallest-identity group across the three streams:
// the records whose leading identityLen bytes, the encoded Ref, are least.
func nextGroup(fs, ts, cs *recStream) (groupRecs, bool, error) {
	var id [identityLen]byte
	found := false
	for _, s := range [...]*recStream{fs, ts, cs} {
		if s.ok && (!found || bytes.Compare(s.cur[:identityLen], id[:]) < 0) {
			copy(id[:], s.cur)
			found = true
		}
	}
	if !found {
		return groupRecs{}, false, nil
	}
	in := func(s *recStream) bool { return s.ok && bytes.Equal(s.cur[:identityLen], id[:]) }

	g := groupRecs{id: getRef(id[:])}
	for in(fs) {
		g.froms = append(g.froms, DecodeFrom(fs.cur).From)
		if err := fs.advance(); err != nil {
			return groupRecs{}, false, err
		}
	}
	for in(ts) {
		g.tos = append(g.tos, DecodeTo(ts.cur).To)
		if err := ts.advance(); err != nil {
			return groupRecs{}, false, err
		}
	}
	for in(cs) {
		c := DecodeCombined(cs.cur)
		g.combineds = append(g.combineds, interval{from: c.From, to: c.To})
		if err := cs.advance(); err != nil {
			return groupRecs{}, false, err
		}
	}
	return g, true, nil
}
