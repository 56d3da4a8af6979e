package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// compactRetries is how many optimistic lock-free merge attempts
// compactPartition makes before falling back to holding the structural
// lock exclusively for the whole merge — the pessimistic mode cannot
// conflict, so every compaction eventually makes progress even under a
// constant stream of checkpoints and relocations.
const compactRetries = 4

// Compact runs database maintenance on every partition (Section 5.2): it
// merges all read-store runs, precomputes the Combined table by joining
// From and To, purges records that refer only to deleted snapshots, and
// physically drops deletion-vector entries. Afterwards each partition holds
// at most one Combined run (complete records) and one From run (incomplete
// records), and the To table is empty.
//
// Partitions are maintained independently: a failure in one partition does
// not stop the pass, and the joined error reports every partition that
// failed. Stats.Compactions counts partitions actually compacted.
//
// While any deletion vector carries unpersisted entries (a block
// relocation since the last checkpoint), compaction is deferred — the
// records those entries hide must not be physically destroyed before the
// re-keyed replacements buffered in the write stores are durable. Call
// Checkpoint first (the background maintainer runs after checkpoints, so
// it sees the persisted state naturally).
//
// Under Options.Retention == RetainLive, Compact runs in tiered mode
// (CompactTiered): merging a sealed run across the reclaim horizon would
// destroy the disjoint CP windows that let Expire reclaim it for free.
func (e *Engine) Compact() error {
	return e.compactAll(e.expiryEnabled())
}

// CompactTiered is Compact in CP-tiered mode: Combined runs that are
// sealed — level >= 1, trustworthy CP window, no override records — are
// left untouched instead of being re-merged, so their windows stay
// disjoint and a later Expire can drop them whole once the reclaim
// horizon passes their MaxCP. Everything else (From, To, unsealed
// Combined runs, the override run) merges exactly as in Compact; the
// merged Combined output is split so override records land in their own
// run, keeping the regular output sealed. The background maintainer uses
// this mode when Options.Retention is RetainLive.
func (e *Engine) CompactTiered() error {
	return e.compactAll(true)
}

func (e *Engine) compactAll(tiered bool) error {
	var errs []error
	for p := 0; p < e.db.Partitions(); p++ {
		compacted, err := e.compactPartitionMode(p, tiered)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: compacting partition %d: %w", p, err))
			continue
		}
		if compacted {
			e.stats.compactions.Add(1)
		}
	}
	return errors.Join(errs...)
}

// CompactPartition compacts a single partition; partitions can be
// maintained selectively and independently (Section 5.3).
func (e *Engine) CompactPartition(p int) error {
	compacted, err := e.compactPartitionMode(p, false)
	if err != nil {
		return err
	}
	if compacted {
		e.stats.compactions.Add(1)
	}
	return nil
}

// dvDirty reports whether any table carries unpersisted deletion-vector
// entries. Callers hold the structural lock (shared suffices).
func (e *Engine) dvDirty() bool {
	for _, table := range []string{TableFrom, TableTo, TableCombined} {
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

// compactPartition merges all runs of partition p into at most one From
// and one Combined run. The k-way merge and run building happen against a
// pinned view with no structural lock held, so updates and queries proceed
// during the bulk of the work; the lock is taken exclusively only to
// validate that the partition's run set is unchanged and atomically
// install the manifest edit. A conflicting checkpoint, relocation, or
// concurrent compaction makes the attempt retry against a fresh view,
// and after compactRetries conflicts the merge falls back to running
// entirely under the exclusive lock.
func (e *Engine) compactPartitionMode(p int, tiered bool) (bool, error) {
	if o := e.obs; o != nil {
		// Trace events reuse the Shard field for the partition — the
		// closest analogue of "which slice of the keyspace" for a
		// compaction.
		start := o.opStart(obs.OpCompact, p, 0, 0)
		compacted, err := e.compactPartitionLoop(p, tiered)
		o.opEnd(obs.OpCompact, p, 0, 0, start, o.compact, err)
		return compacted, err
	}
	return e.compactPartitionLoop(p, tiered)
}

func (e *Engine) compactPartitionLoop(p int, tiered bool) (bool, error) {
	for attempt := 0; ; attempt++ {
		compacted, installed, err := e.compactAttempt(p, attempt >= compactRetries, tiered)
		if err != nil || installed {
			return compacted, err
		}
		e.stats.compactConflicts.Add(1)
	}
}

// sealedBelow selects the sealed Combined runs of a tiered merge: already
// compacted (level >= 1), trustworthy CP window, and free of override
// records. Tiered compaction never re-merges them — re-merging would union
// their windows with newer records and push the result's MaxCP past the
// horizon forever, so nothing would ever expire.
func sealedBelow(runs []*lsm.Run) []*lsm.Run {
	var sealed []*lsm.Run
	for _, r := range runs {
		if r.Level() >= 1 && r.CPWindowKnown() && r.Overrides() == 0 {
			sealed = append(sealed, r)
		}
	}
	return sealed
}

// compactAttempt performs one merge-and-install attempt. With
// exclusive=false the structural lock is held only to pin the view and,
// later, to validate + install; installed=false then signals a conflict
// the caller should retry. With exclusive=true the checkpoint
// single-flight guard is taken first — so the merge cannot interleave
// with the window in which a checkpoint's write stores are frozen but its
// runs are uninstalled — and the structural lock is then held throughout,
// so validation is unnecessary and the attempt always installs.
func (e *Engine) compactAttempt(p int, exclusive, tiered bool) (compacted, installed bool, err error) {
	if exclusive {
		e.cpMu.Lock()
		defer e.cpMu.Unlock()
		e.mu.Lock()
	} else {
		e.mu.RLock()
	}
	locked := exclusive
	// A dirty deletion vector defers compaction of the whole table set: the
	// unpersisted entries hide records whose re-keyed replacements (block
	// relocation) still sit in the volatile write stores. Physically purging
	// the hidden records and durably clearing their entries now would make
	// the destruction durable while the replacements are not — a crash then
	// loses the references outright, and the relocation's WAL record cannot
	// re-transplant records that no longer exist in any run. The next
	// checkpoint persists vector and replacements together, after which
	// compaction proceeds (the maintainer is kicked after every checkpoint).
	if e.dvDirty() {
		if exclusive {
			e.mu.Unlock()
		} else {
			e.mu.RUnlock()
		}
		return false, true, nil
	}
	v := e.db.AcquireView()
	if !exclusive {
		e.mu.RUnlock()
	}
	defer func() {
		if locked {
			e.mu.Unlock()
		}
		v.Release()
	}()

	vFrom := v.Runs(TableFrom, p)
	vTo := v.Runs(TableTo, p)
	vComb := v.Runs(TableCombined, p)
	// Tiered mode leaves sealed Combined runs out of the merge (see
	// sealedBelow); only the remainder — Level-0 runs and the override
	// run — is read and rewritten.
	mergeComb := vComb
	var sealed []*lsm.Run
	if tiered {
		sealed = sealedBelow(vComb)
		if len(sealed) > 0 {
			mergeComb = make([]*lsm.Run, 0, len(vComb)-len(sealed))
			for _, r := range vComb {
				if r.Level() >= 1 && r.CPWindowKnown() && r.Overrides() == 0 {
					continue
				}
				mergeComb = append(mergeComb, r)
			}
		}
	}
	if len(vFrom) == 0 && len(vTo) == 0 && len(mergeComb) <= 1 {
		// Nothing to merge; at most the single compacted Combined run (in
		// tiered mode, possibly plus sealed runs awaiting expiry).
		return false, true, nil
	}

	fromIt, err := v.MergedIter(TableFrom, p)
	if err != nil {
		return false, true, err
	}
	toIt, err := v.MergedIter(TableTo, p)
	if err != nil {
		return false, true, err
	}
	combIt, err := v.MergedIterOf(TableCombined, mergeComb)
	if err != nil {
		return false, true, err
	}

	fs := &recStream{it: fromIt}
	ts := &recStream{it: toIt}
	cs := &recStream{it: combIt}
	if err := fs.advance(); err != nil {
		return false, true, err
	}
	if err := ts.advance(); err != nil {
		return false, true, err
	}
	if err := cs.advance(); err != nil {
		return false, true, err
	}

	// Every complete interval the join emits consumes a To or a Combined
	// input, every incomplete one a From: the input totals bound the
	// outputs, which is what sizes their Bloom filters.
	expectFrom, expectComb := recordsIn(vFrom), recordsIn(vTo, mergeComb)
	newFrom, err := e.db.NewRunBuilder(TableFrom, p, 1, v.CP(), storage.SrcCompaction, expectFrom)
	if err != nil {
		return false, true, err
	}
	newComb, err := e.db.NewRunBuilder(TableCombined, p, 1, v.CP(), storage.SrcCompaction, expectComb)
	if err != nil {
		newFrom.Abort()
		return false, true, err
	}
	// Tiered mode writes surviving override records to a run of their own:
	// overrides must outlive their line's snapshots, so mixing them into
	// the regular output would poison its droppability. The override run
	// (Overrides > 0) is re-merged on every tiered pass, which is also what
	// purges overrides once their line is fully gone.
	var newOver *lsm.RunBuilder
	if tiered {
		newOver, err = e.db.NewRunBuilder(TableCombined, p, 1, v.CP(), storage.SrcCompaction, expectComb)
		if err != nil {
			newFrom.Abort()
			newComb.Abort()
			return false, true, err
		}
	}
	abort := func(err error) (bool, bool, error) {
		newFrom.Abort()
		newComb.Abort()
		if newOver != nil {
			newOver.Abort()
		}
		return false, true, err
	}

	// Purged records are counted locally and added to the stats only once
	// the attempt installs, so conflict retries do not double-count.
	var purged uint64
	for {
		g, ok, err := nextGroup(fs, ts, cs)
		if err != nil {
			return abort(err)
		}
		if !ok {
			break
		}
		if err := e.emitGroup(g, newFrom, newComb, newOver, &purged); err != nil {
			return abort(err)
		}
	}

	// Finish the run files (bloom + header + sync) before taking the
	// lock: file I/O stays out of the critical section.
	var added []lsm.RunRef
	if ref, ok, err := newFrom.Finish(); err != nil {
		newFrom.Abort()
		newComb.Abort()
		if newOver != nil {
			newOver.Abort()
		}
		return false, true, err
	} else if ok {
		added = append(added, ref)
	}
	if ref, ok, err := newComb.Finish(); err != nil {
		newComb.Abort()
		if newOver != nil {
			newOver.Abort()
		}
		for _, r := range added {
			e.db.DiscardRun(r)
		}
		return false, true, err
	} else if ok {
		added = append(added, ref)
	}
	if newOver != nil {
		if ref, ok, err := newOver.Finish(); err != nil {
			newOver.Abort()
			for _, r := range added {
				e.db.DiscardRun(r)
			}
			return false, true, err
		} else if ok {
			added = append(added, ref)
		}
	}

	if !exclusive {
		e.mu.Lock()
		locked = true
		if !(v.Unchanged(TableFrom, p) && v.Unchanged(TableTo, p) && v.Unchanged(TableCombined, p)) {
			// The partition's run set or a deletion vector moved under the
			// merge: the built runs describe a stale state. Discard them
			// and retry against a fresh view.
			for _, r := range added {
				e.db.DiscardRun(r)
			}
			return false, false, nil
		}
	}

	// Install. The view's run lists equal the live ones (validated above,
	// or the lock was held throughout), so dropping the view's runs drops
	// exactly the partition's live runs.
	edit := e.db.NewEdit().SetSource(storage.SrcCompaction)
	for _, ref := range added {
		edit.AddRun(ref)
	}
	fromTbl := e.db.Table(TableFrom)
	toTbl := e.db.Table(TableTo)
	combTbl := e.db.Table(TableCombined)
	for _, r := range vFrom {
		edit.DropRun(TableFrom, r.Name())
	}
	for _, r := range vTo {
		edit.DropRun(TableTo, r.Name())
	}
	for _, r := range mergeComb {
		edit.DropRun(TableCombined, r.Name())
	}
	clearedFrom := fromTbl.ClearDVPartition(p)
	clearedTo := toTbl.ClearDVPartition(p)
	// Sealed runs were not rewritten, so deletion-vector entries whose
	// records may live in them must survive the clear; entries outside
	// every sealed run's block range paired only with rewritten runs.
	var keepDV func(block uint64) bool
	if len(sealed) > 0 {
		keepDV = func(block uint64) bool {
			for _, r := range sealed {
				if block >= r.MinBlock() && block <= r.MaxBlock() {
					return true
				}
			}
			return false
		}
	}
	clearedComb := combTbl.ClearDVPartitionKeep(p, keepDV)
	edit.FlushDV(TableFrom).FlushDV(TableTo).FlushDV(TableCombined)
	if err := edit.Commit(); err != nil {
		// The commit did not land (a failed Commit removes its added run
		// files itself): the old runs are still live, so the deletion
		// vectors that hide their dead records must come back.
		fromTbl.RestoreDV(clearedFrom)
		toTbl.RestoreDV(clearedTo)
		combTbl.RestoreDV(clearedComb)
		return false, true, err
	}
	e.stats.recordsPurged.Add(purged)
	e.stats.compactWriteBytes.Add(addedBytes(added))
	return true, true, nil
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
// view's pinned list for (table, partition) — the read-safety check a
// job executor performs after re-pinning: membership keeps the run file
// alive for the duration of the view.
func viewHasRuns(v *lsm.View, table string, p int, inputs []*lsm.Run) bool {
	live := v.Runs(table, p)
	for _, in := range inputs {
		found := false
		for _, r := range live {
			if r == in {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// compactJob executes one leveled merge planned by a CompactionPolicy.
// It returns installed=false when the job is stale (an input run was
// consumed by a checkpoint, expiry, or another merge since planning) or
// deferred (dirty deletion vector); the scheduler then re-plans instead
// of retrying the same job.
func (e *Engine) compactJob(job CompactionJob) (bool, error) {
	if o := e.obs; o != nil {
		start := o.opStart(obs.OpCompact, job.Partition, 0, 0)
		installed, err := e.compactJobAttempt(job)
		o.opEnd(obs.OpCompact, job.Partition, 0, 0, start, o.compact, err)
		return installed, err
	}
	return e.compactJobAttempt(job)
}

func (e *Engine) compactJobAttempt(job CompactionJob) (installed bool, err error) {
	p := job.Partition
	e.mu.RLock()
	// Dirty deletion vectors defer job merges for the same reason they
	// defer full ones (see compactAttempt): purging records hidden by
	// unpersisted entries would make their destruction durable before the
	// re-keyed replacements are.
	if e.dvDirty() {
		e.mu.RUnlock()
		return false, nil
	}
	v := e.db.AcquireView()
	e.mu.RUnlock()
	locked := false
	defer func() {
		if locked {
			e.mu.Unlock()
		}
		v.Release()
	}()

	// The job was planned against an earlier, already-released view; its
	// run pointers are only safe to read while live in this fresh one.
	if !viewHasRuns(v, TableFrom, p, job.From) ||
		!viewHasRuns(v, TableTo, p, job.To) ||
		!viewHasRuns(v, TableCombined, p, job.Combined) {
		return false, nil
	}

	fromIt, err := v.MergedIterOf(TableFrom, job.From)
	if err != nil {
		return false, err
	}
	toIt, err := v.MergedIterOf(TableTo, job.To)
	if err != nil {
		return false, err
	}
	combIt, err := v.MergedIterOf(TableCombined, job.Combined)
	if err != nil {
		return false, err
	}
	fs := &recStream{it: fromIt}
	ts := &recStream{it: toIt}
	cs := &recStream{it: combIt}
	for _, s := range []*recStream{fs, ts, cs} {
		if err := s.advance(); err != nil {
			return false, err
		}
	}

	// As in compactAttempt, the input totals bound each output.
	expectComb := recordsIn(job.To, job.Combined)
	newFrom, err := e.db.NewRunBuilder(TableFrom, p, job.OutputLevel, v.CP(), storage.SrcCompaction, recordsIn(job.From))
	if err != nil {
		return false, err
	}
	newTo, err := e.db.NewRunBuilder(TableTo, p, job.OutputLevel, v.CP(), storage.SrcCompaction, recordsIn(job.To))
	if err != nil {
		newFrom.Abort()
		return false, err
	}
	newComb, err := e.db.NewRunBuilder(TableCombined, p, job.OutputLevel, v.CP(), storage.SrcCompaction, expectComb)
	if err != nil {
		newFrom.Abort()
		newTo.Abort()
		return false, err
	}
	// As in tiered full compaction, surviving override records go to a
	// run of their own so the regular Combined output stays sealed. A
	// leveled merge never synthesizes overrides, so the builder finishes
	// empty (and writes no run) unless an input carried them.
	var newOver *lsm.RunBuilder
	if e.expiryEnabled() {
		newOver, err = e.db.NewRunBuilder(TableCombined, p, job.OutputLevel, v.CP(), storage.SrcCompaction, expectComb)
		if err != nil {
			newFrom.Abort()
			newTo.Abort()
			newComb.Abort()
			return false, err
		}
	}
	builders := func() []*lsm.RunBuilder {
		bs := []*lsm.RunBuilder{newFrom, newTo, newComb}
		if newOver != nil {
			bs = append(bs, newOver)
		}
		return bs
	}()
	abort := func(err error) (bool, error) {
		for _, b := range builders {
			b.Abort()
		}
		return false, err
	}

	var purged uint64
	for {
		g, ok, err := nextGroup(fs, ts, cs)
		if err != nil {
			return abort(err)
		}
		if !ok {
			break
		}
		if err := e.emitLeveledGroup(g, newFrom, newTo, newComb, newOver, &purged); err != nil {
			return abort(err)
		}
	}

	// Finish the run files before taking the lock, as in compactAttempt.
	var added []lsm.RunRef
	for i, b := range builders {
		ref, ok, err := b.Finish()
		if err != nil {
			for _, later := range builders[i+1:] {
				later.Abort()
			}
			for _, r := range added {
				e.db.DiscardRun(r)
			}
			return false, err
		}
		if ok {
			added = append(added, ref)
		}
	}

	e.mu.Lock()
	locked = true
	if !(v.UnchangedRuns(TableFrom, p, job.From) &&
		v.UnchangedRuns(TableTo, p, job.To) &&
		v.UnchangedRuns(TableCombined, p, job.Combined)) {
		// An input run or a deletion vector moved under the merge; the
		// built runs describe a stale state. Unlike a full compaction,
		// runs added outside the input set (a checkpoint's level-0 flush)
		// do not invalidate the job.
		for _, r := range added {
			e.db.DiscardRun(r)
		}
		e.stats.compactConflicts.Add(1)
		return false, nil
	}

	edit := e.db.NewEdit().SetSource(storage.SrcCompaction)
	for _, ref := range added {
		edit.AddRun(ref)
	}
	for _, r := range job.From {
		edit.DropRun(TableFrom, r.Name())
	}
	for _, r := range job.To {
		edit.DropRun(TableTo, r.Name())
	}
	for _, r := range job.Combined {
		edit.DropRun(TableCombined, r.Name())
	}
	// Deletion-vector entries whose records lived in the input runs were
	// consumed by the merge (the outputs are DV-filtered); entries that
	// may target a run outside the job must survive. dvGen was validated
	// above, so every entry targets a run the view knows about.
	fromTbl := e.db.Table(TableFrom)
	toTbl := e.db.Table(TableTo)
	combTbl := e.db.Table(TableCombined)
	keepOutside := func(table string, inputs []*lsm.Run) func(uint64) bool {
		var others []*lsm.Run
		for _, r := range v.Runs(table, p) {
			in := false
			for _, i := range inputs {
				if r == i {
					in = true
					break
				}
			}
			if !in {
				others = append(others, r)
			}
		}
		if len(others) == 0 {
			return nil
		}
		return func(block uint64) bool {
			for _, r := range others {
				if block >= r.MinBlock() && block <= r.MaxBlock() {
					return true
				}
			}
			return false
		}
	}
	clearedFrom := fromTbl.ClearDVPartitionKeep(p, keepOutside(TableFrom, job.From))
	clearedTo := toTbl.ClearDVPartitionKeep(p, keepOutside(TableTo, job.To))
	clearedComb := combTbl.ClearDVPartitionKeep(p, keepOutside(TableCombined, job.Combined))
	edit.FlushDV(TableFrom).FlushDV(TableTo).FlushDV(TableCombined)
	if err := edit.Commit(); err != nil {
		fromTbl.RestoreDV(clearedFrom)
		toTbl.RestoreDV(clearedTo)
		combTbl.RestoreDV(clearedComb)
		return false, err
	}
	e.stats.recordsPurged.Add(purged)
	e.stats.compactWriteBytes.Add(addedBytes(added))
	return true, nil
}

// emitLeveledGroup writes one identity group of a leveled merge. Unlike
// emitGroup it sees only the records held by the job's input runs, so it
// joins a From with a To only when both ends are present — exactly the
// pairs the global join would form, because a level merge always inputs
// every run of its level and levels partition flush history into
// contiguous, monotonically ordered segments — and carries unmatched
// records verbatim to the output level. Synthesizing the inherited-
// ownership interval the full join derives for an unmatched To, or
// purging an unmatched From, would corrupt the eventual join with the
// counterpart record still climbing the levels in another run.
func (e *Engine) emitLeveledGroup(g groupRecs, newFrom, newTo, newComb, newOver *lsm.RunBuilder, purged *uint64) error {
	line := g.id.Line
	froms, tos := g.froms, g.tos
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })

	// Greedy pairing with joinGroup's rule — each To, ascending, takes
	// the earliest unused From <= it. Since Tos are processed in order,
	// the earliest unused From is always froms[fi].
	var complete []interval
	var loneTos []uint64
	fi := 0
	for _, t := range tos {
		if fi < len(froms) && froms[fi] <= t {
			f := froms[fi]
			fi++
			if f == t {
				// An add and remove at one CP cancel, as in joinGroup.
				continue
			}
			complete = append(complete, interval{from: f, to: t})
		} else {
			loneTos = append(loneTos, t)
		}
	}
	loneFroms := froms[fi:]

	// Completed pairs and pre-joined Combined records are globally
	// correct, so the full purge policy applies to them.
	complete = dedupeIntervals(append(complete, g.combineds...))
	for _, iv := range complete {
		if !e.keepInterval(line, iv.from, iv.to) {
			*purged++
			continue
		}
		rec := EncodeCombined(CombinedRec{
			Ref:  Ref{Block: g.id.Block, Inode: g.id.Inode, Offset: g.id.Offset, Line: line, Length: g.id.Length},
			From: iv.from, To: iv.to,
		})
		dst := newComb
		if newOver != nil && iv.from == 0 {
			dst = newOver
		}
		if err := dst.Add(rec); err != nil {
			return err
		}
	}
	for _, f := range loneFroms {
		rec := EncodeFrom(FromRec{
			Ref:  Ref{Block: g.id.Block, Inode: g.id.Inode, Offset: g.id.Offset, Line: line, Length: g.id.Length},
			From: f,
		})
		if err := newFrom.Add(rec); err != nil {
			return err
		}
	}
	for _, t := range loneTos {
		rec := EncodeTo(ToRec{
			Ref: Ref{Block: g.id.Block, Inode: g.id.Inode, Offset: g.id.Offset, Line: line, Length: g.id.Length},
			To:  t,
		})
		if err := newTo.Add(rec); err != nil {
			return err
		}
	}
	return nil
}

// emitGroup joins one identity group, applies the purge policy, and writes
// the surviving records. Purged records are tallied into *purged. When
// newOver is non-nil (tiered mode), override records (from == 0) go to it
// instead of newComb, so the regular Combined output stays free of
// overrides and therefore sealed.
func (e *Engine) emitGroup(g groupRecs, newFrom, newComb, newOver *lsm.RunBuilder, purged *uint64) error {
	cat := e.catalog
	line := g.id.Line

	joined := joinGroup(g.froms, g.tos)

	// Complete intervals from the join plus pre-existing Combined records.
	var complete []interval
	var incomplete []uint64 // from values of still-live references
	for _, iv := range joined {
		if iv.to == Infinity {
			incomplete = append(incomplete, iv.from)
		} else {
			complete = append(complete, iv)
		}
	}
	complete = dedupeIntervals(append(complete, g.combineds...))

	for _, iv := range complete {
		if !e.keepInterval(line, iv.from, iv.to) {
			*purged++
			continue
		}
		rec := EncodeCombined(CombinedRec{
			Ref:  Ref{Block: g.id.Block, Inode: g.id.Inode, Offset: g.id.Offset, Line: line, Length: g.id.Length},
			From: iv.from, To: iv.to,
		})
		dst := newComb
		if newOver != nil && iv.from == 0 {
			dst = newOver
		}
		if err := dst.Add(rec); err != nil {
			return err
		}
	}
	sort.Slice(incomplete, func(i, j int) bool { return incomplete[i] < incomplete[j] })
	for _, f := range incomplete {
		if !e.keepInterval(line, f, Infinity) {
			*purged++
			continue
		}
		rec := EncodeFrom(FromRec{
			Ref:  Ref{Block: g.id.Block, Inode: g.id.Inode, Offset: g.id.Offset, Line: line, Length: g.id.Length},
			From: f,
		})
		if err := newFrom.Add(rec); err != nil {
			return err
		}
	}
	_ = cat
	return nil
}

// keepInterval decides whether a record with validity [from, to) on line
// must survive compaction. It survives when any retained snapshot falls in
// the interval, when the line's live file system still holds the reference,
// when a clone base (including zombie snapshots) inside the interval pins
// it for inheritance, or when it is an override record (from == 0) of a
// line that is still needed — purging an override would resurrect
// inheritance the file system explicitly terminated.
func (e *Engine) keepInterval(line, from, to uint64) bool {
	cat := e.catalog
	if len(cat.SnapshotsIn(line, from, to)) > 0 {
		return true
	}
	if to == Infinity && cat.IsLive(line) {
		return true
	}
	if cat.PinnedIn(line, from, to) {
		return true
	}
	if from == 0 {
		// Override record: keep while the line can still inherit.
		if cat.IsLive(line) || len(cat.SnapshotsIn(line, 0, Infinity)) > 0 ||
			cat.PinnedIn(line, 0, Infinity) {
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

// curIdentity decodes the identity prefix of the stream head.
func (s *recStream) curIdentity() Ref {
	return getRef(s.cur)
}

// nextGroup pulls the smallest-identity group across the three streams.
func nextGroup(fs, ts, cs *recStream) (groupRecs, bool, error) {
	var minID Ref
	found := false
	consider := func(s *recStream) {
		if !s.ok {
			return
		}
		id := s.curIdentity()
		if !found || compareRef(id, minID) < 0 {
			minID = id
			found = true
		}
	}
	consider(fs)
	consider(ts)
	consider(cs)
	if !found {
		return groupRecs{}, false, nil
	}

	g := groupRecs{id: minID}
	for fs.ok && compareRef(fs.curIdentity(), minID) == 0 {
		g.froms = append(g.froms, DecodeFrom(fs.cur).From)
		if err := fs.advance(); err != nil {
			return groupRecs{}, false, err
		}
	}
	for ts.ok && compareRef(ts.curIdentity(), minID) == 0 {
		g.tos = append(g.tos, DecodeTo(ts.cur).To)
		if err := ts.advance(); err != nil {
			return groupRecs{}, false, err
		}
	}
	for cs.ok && compareRef(cs.curIdentity(), minID) == 0 {
		c := DecodeCombined(cs.cur)
		g.combineds = append(g.combineds, interval{from: c.From, to: c.To})
		if err := cs.advance(); err != nil {
			return groupRecs{}, false, err
		}
	}
	return g, true, nil
}
