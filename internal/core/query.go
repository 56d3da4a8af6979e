package core

import (
	"sort"

	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/obs"
)

// Owner is one query result: a logical owner of the queried block, with the
// CP-version interval during which the reference was live and the masked
// set of versions that still exist (Section 4.2.1).
type Owner struct {
	// Inode, Offset, Line, Length identify the reference.
	Inode  uint64
	Offset uint64
	Line   uint64
	Length uint64
	// From and To delimit the raw validity interval [From, To).
	From uint64
	To   uint64
	// Versions lists the retained snapshot versions of Line within
	// [From, To) — the snapshots whose metadata must be updated if the
	// block moves.
	Versions []uint64
	// Live reports whether the line's writable file system currently
	// references the block (To == Infinity on a live line).
	Live bool
	// Inherited marks owners synthesized by structural inheritance from a
	// cloned snapshot rather than stored explicitly.
	Inherited bool
}

// identity is the grouping key of the join: everything but the CP fields.
type identity struct {
	Inode  uint64
	Offset uint64
	Line   uint64
	Length uint64
}

func identOf(r Ref) identity {
	return identity{Inode: r.Inode, Offset: r.Offset, Line: r.Line, Length: r.Length}
}

// interval is a joined validity range.
type interval struct {
	from, to  uint64
	inherited bool
}

// Query returns every owner of the given physical block: explicit records
// (From ⋈ To across runs and write stores, plus precomputed Combined
// records) expanded through clone inheritance and masked against existing
// snapshots. Owners with no surviving version and no live reference are
// omitted.
//
// Queries hold the structural lock shared only long enough to pin an LSM
// view and snapshot the owning shard's write-store records — both the
// active trees and any frozen trees a running checkpoint is flushing; all
// run I/O — the expensive part — happens against the pinned view with no
// lock held. A query therefore never blocks on a running compaction or on
// a checkpoint's run-building I/O: both do their heavy work against
// pinned snapshots outside the structural lock and acquire it exclusively
// only for their brief freeze and validate-and-install critical sections,
// which are in-memory pointer swaps plus one manifest write.
func (e *Engine) Query(block uint64) ([]Owner, error) {
	if o := e.obs; o != nil && o.sampleHot(block) {
		start := o.opStart(obs.OpQuery, e.shardIndex(block), block, 0)
		owners, err := e.query(block)
		o.opEnd(obs.OpQuery, e.shardIndex(block), block, 0, start, o.query, err)
		return owners, err
	}
	return e.query(block)
}

func (e *Engine) query(block uint64) ([]Owner, error) {
	e.stats.queries.Add(1)
	v, ws := e.pinBlock(block)
	defer v.Release()
	return e.queryPinned(v, ws, block)
}

// wsRecords is one block's write-store snapshot, captured under the same
// structural-lock acquisition as the LSM view so the union of the two is a
// consistent cut: a concurrent checkpoint can never move records out of
// the write store without the view gaining the run they were flushed to.
type wsRecords struct {
	froms     []FromRec
	tos       []ToRec
	combineds []CombinedRec
}

// pinBlock captures the consistent snapshot a query runs against: the
// pinned LSM view plus the block's records from the owning shard's active
// trees and — when a checkpoint flush is in flight — its frozen trees.
// The union is a consistent cut in every checkpoint phase: before the
// freeze the records are active, during the flush they are frozen (and
// not yet in any run the view sees), and after the install the view has
// the runs and the frozen generation is gone.
func (e *Engine) pinBlock(block uint64) (*lsm.View, wsRecords) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := e.db.AcquireView()
	s := e.shardOf(block)
	var ws wsRecords
	s.mu.RLock()
	s.active.collect(block, &ws)
	s.mu.RUnlock()
	if s.frozen != nil {
		s.frozen.collect(block, &ws)
	}
	return v, ws
}

// queryPinned runs the join, inheritance expansion, and masking against a
// pinned snapshot. No engine lock is held.
func (e *Engine) queryPinned(v *lsm.View, ws wsRecords, block uint64) ([]Owner, error) {
	groups, err := e.combinedForBlock(v, ws, block)
	if err != nil {
		return nil, err
	}
	expandInheritance(groups, e.catalog)
	return maskOwners(groups, e.catalog), nil
}

// collectRuns appends one block's run records, read from the pinned view,
// to recs. Combined runs sealed entirely below horizon are skipped without
// being opened (see lsm.View.CollectBlockPruned); a zero horizon reads
// every run.
func collectRuns(v *lsm.View, block, horizon uint64, recs *wsRecords) error {
	if err := v.CollectBlock(TableFrom, block, func(rec []byte) bool {
		recs.froms = append(recs.froms, DecodeFrom(rec))
		return true
	}); err != nil {
		return err
	}
	if err := v.CollectBlock(TableTo, block, func(rec []byte) bool {
		recs.tos = append(recs.tos, DecodeTo(rec))
		return true
	}); err != nil {
		return err
	}
	return v.CollectBlockPruned(TableCombined, block, horizon, func(rec []byte) bool {
		recs.combineds = append(recs.combineds, DecodeCombined(rec))
		return true
	})
}

// combinedForBlock reconstructs the Combined view of one block:
// identity -> sorted intervals.
func (e *Engine) combinedForBlock(v *lsm.View, ws wsRecords, block uint64) (map[identity][]interval, error) {
	// The write-store records captured at pin time participate
	// immediately, per the paper's guarantee that all entries of the
	// current CP are in memory; the run records join them here.
	//
	// Under RetainLive, Combined runs sealed entirely below the reclaim
	// horizon are skipped without being opened: every record in them
	// describes an interval that ended before the oldest retained
	// snapshot, so masking would discard it anyway. With RetainAll the
	// horizon is 0 and pruning is disabled — identical behavior (and
	// identical I/O) to the baseline.
	var horizon uint64
	if e.expiryEnabled() {
		horizon = e.ReclaimHorizon()
	}
	if err := collectRuns(v, block, horizon, &ws); err != nil {
		return nil, err
	}
	froms, tos, combineds := ws.froms, ws.tos, ws.combineds

	// Group by identity.
	fromsBy := map[identity][]uint64{}
	for _, f := range froms {
		fromsBy[identOf(f.Ref)] = append(fromsBy[identOf(f.Ref)], f.From)
	}
	tosBy := map[identity][]uint64{}
	for _, t := range tos {
		tosBy[identOf(t.Ref)] = append(tosBy[identOf(t.Ref)], t.To)
	}

	groups := map[identity][]interval{}
	for id, fs := range fromsBy {
		ivs := joinGroup(fs, tosBy[id])
		groups[id] = append(groups[id], ivs...)
		delete(tosBy, id)
	}
	for id, ts := range tosBy { // To entries with no From at all
		ivs := joinGroup(nil, ts)
		groups[id] = append(groups[id], ivs...)
	}
	for _, c := range combineds {
		id := identOf(c.Ref)
		groups[id] = append(groups[id], interval{from: c.From, to: c.To})
	}
	for id := range groups {
		ivs := dedupeIntervals(groups[id])
		groups[id] = ivs
	}
	return groups, nil
}

// pairGroup is the pairing rule of the outer join of one identity group
// (Section 4.2.1): each To entry, ascending, joins the earliest unconsumed
// From entry with From.from <= To.to — always the lowest one left, since
// the Tos before it consumed a prefix. Pairs with from == to describe
// references that were added and removed within one CP interval; they are
// normally pruned before reaching disk, but when one end froze with a
// flushing checkpoint before the other arrived, both reach the read store
// and cancel to nothing here rather than fabricating a spurious override.
// What an entry left without a partner means is the caller's business:
// joinGroup closes it, a partial merge carries it (see emitLeveledGroup).
// froms and tos are sorted in place and loneFroms aliases froms.
func pairGroup(froms, tos []uint64) (pairs []interval, loneFroms, loneTos []uint64) {
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
	fi := 0
	for _, t := range tos {
		if fi == len(froms) || froms[fi] > t {
			loneTos = append(loneTos, t)
			continue
		}
		if f := froms[fi]; f < t {
			pairs = append(pairs, interval{from: f, to: t})
		}
		fi++
	}
	return pairs, froms[fi:], loneTos
}

// joinGroup is the outer join of one identity group as a query sees it:
// pairGroup's pairs, Tos without a From joined to the implicit from = 0 (an
// inheritance override, Section 4.2.2), and Froms without a To joined to
// the implicit to = Infinity.
func joinGroup(froms, tos []uint64) []interval {
	out, loneFroms, loneTos := pairGroup(froms, tos)
	for _, t := range loneTos {
		out = append(out, interval{from: 0, to: t})
	}
	for _, f := range loneFroms {
		out = append(out, interval{from: f, to: Infinity})
	}
	return out
}

func dedupeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].from != ivs[j].from {
			return ivs[i].from < ivs[j].from
		}
		return ivs[i].to < ivs[j].to
	})
	out := ivs[:0]
	for i, iv := range ivs {
		if i > 0 && iv.from == out[len(out)-1].from && iv.to == out[len(out)-1].to {
			continue
		}
		out = append(out, iv)
	}
	return out
}

// expandInheritance adds implicit records for clone lines (Section 4.2.2):
// for every interval of snapshot line l covering a clone base (l', v), if
// the clone has no override (a record with from == 0 on line l'), an
// implicit record (l', 0, Infinity) is added. The process repeats until it
// inserts nothing new (clones of clones).
func expandInheritance(groups map[identity][]interval, cat *MemCatalog) {
	for {
		added := false
		// Snapshot the keys: we mutate the map during iteration.
		ids := make([]identity, 0, len(groups))
		for id := range groups {
			ids = append(ids, id)
		}
		for _, id := range ids {
			for _, iv := range groups[id] {
				for _, cl := range cat.Clones(id.Line) {
					if cl.Base < iv.from || cl.Base >= iv.to {
						continue
					}
					cid := identity{Inode: id.Inode, Offset: id.Offset, Line: cl.Line, Length: id.Length}
					if hasOverride(groups[cid]) {
						continue
					}
					groups[cid] = append(groups[cid], interval{from: 0, to: Infinity, inherited: true})
					added = true
				}
			}
		}
		if !added {
			return
		}
	}
}

// hasOverride reports whether the identity already has a record starting at
// version 0 — either an explicit override or an implicit one added earlier.
func hasOverride(ivs []interval) bool {
	for _, iv := range ivs {
		if iv.from == 0 {
			return true
		}
	}
	return false
}

// maskOwners converts joined groups into query results, masking each
// interval against the versions that still exist and dropping owners with
// nothing left.
func maskOwners(groups map[identity][]interval, cat *MemCatalog) []Owner {
	var out []Owner
	for id, ivs := range groups {
		for _, iv := range ivs {
			versions := cat.SnapshotsIn(id.Line, iv.from, iv.to)
			live := iv.to == Infinity && cat.IsLive(id.Line)
			if len(versions) == 0 && !live {
				continue
			}
			out = append(out, Owner{
				Inode:     id.Inode,
				Offset:    id.Offset,
				Line:      id.Line,
				Length:    id.Length,
				From:      iv.from,
				To:        iv.to,
				Versions:  versions,
				Live:      live,
				Inherited: iv.inherited,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Line != b.Line:
			return a.Line < b.Line
		case a.Inode != b.Inode:
			return a.Inode < b.Inode
		case a.Offset != b.Offset:
			return a.Offset < b.Offset
		case a.From != b.From:
			return a.From < b.From
		default:
			return a.To < b.To
		}
	})
	return out
}

// QueryRange runs Query for each allocated block in [block, block+n) and
// invokes visit with each block's owners. Blocks with no owners are passed
// with an empty slice. This is the "run" access pattern of the query
// benchmarks (Section 6.4): consecutive sorted queries share pages via the
// cache.
func (e *Engine) QueryRange(block uint64, n int, visit func(block uint64, owners []Owner) bool) error {
	if o := e.obs; o != nil {
		// One event and one observation for the whole range — the
		// per-block cost is what backlog_query_ns measures; this histogram
		// captures the range-scan latency callers actually see.
		start := o.opStart(obs.OpQueryRange, -1, block, 0)
		err := e.queryRange(block, n, visit)
		o.opEnd(obs.OpQueryRange, -1, block, 0, start, o.queryRange, err)
		return err
	}
	return e.queryRange(block, n, visit)
}

func (e *Engine) queryRange(block uint64, n int, visit func(block uint64, owners []Owner) bool) error {
	for i := 0; i < n; i++ {
		b := block + uint64(i)
		e.stats.queries.Add(1)
		v, ws := e.pinBlock(b)
		owners, err := e.queryPinned(v, ws, b)
		v.Release()
		if err != nil {
			return err
		}
		if !visit(b, owners) {
			return nil
		}
	}
	return nil
}
