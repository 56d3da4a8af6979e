package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"

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

// interval is a joined validity range.
type interval struct {
	from, to  uint64
	inherited bool
}

// Query returns every owner of the given physical block: explicit records
// (From ⋈ To across runs and write stores, plus precomputed Combined
// records) expanded through clone inheritance and masked against existing
// snapshots. Owners with no surviving version and no live reference are
// omitted. It is QueryRange over the one block, timed into its own
// histogram and traced as its own operation.
func (e *Engine) Query(block uint64) ([]Owner, error) {
	if o := e.obs; o != nil && o.sampleHot(block) {
		start := o.opStart(obs.OpQuery, e.shardIndex(block), block, 0)
		owners, err := e.query(block)
		o.opEnd(obs.OpQuery, e.shardIndex(block), block, 0, start, o.query, err)
		return owners, err
	}
	return e.query(block)
}

func (e *Engine) query(block uint64) (owners []Owner, err error) {
	err = e.queryRange(block, 1, func(_ uint64, o []Owner) bool {
		owners = o
		return true
	})
	return owners, err
}

// QueryRange answers the n blocks [block, block+n) — the "run" access
// pattern of the query benchmarks (Section 6.4) — from one pinned snapshot:
// one LSM view and one write-store snapshot, taken under one shared
// acquisition of the structural lock, so every block is answered as of the
// same cut. It calls visit with each block's owners (as Query returns them,
// a nil slice for a block with none) in ascending block order, until visit
// returns false. Each run is sought once, at the first block of the range
// it may hold, and read forward from there, so consecutive blocks share the
// seeks and pages a run of point queries would repeat. n == 0 visits
// nothing; a negative n, or a range that runs past the largest block
// number, is refused with an error before anything is read.
//
// The structural lock is held shared only for the pin; all run I/O — the
// expensive part — happens against the pinned view with no lock held, so a
// query never blocks on a running compaction or on a checkpoint's I/O,
// which take the lock exclusively only to swap pointers: the checkpoint's
// freeze, and the swap that installs a commit.
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

// queryRange is the one read path: per table, one stream merges the
// range's write-store records with the records of every run some block of
// the range may be in (lsm.RangeIter), and block by block the three streams
// go through the group join compaction runs (nextGroup, joinGroup), then
// inheritance expansion and masking.
func (e *Engine) queryRange(lo uint64, n int, visit func(block uint64, owners []Owner) bool) error {
	if n < 0 || n > 0 && uint64(n-1) > math.MaxUint64-lo {
		return fmt.Errorf("core: QueryRange(%d, %d): not a range of block numbers", lo, n)
	}
	if n == 0 {
		return nil
	}
	last := lo + uint64(n-1)
	v, mem, topo := e.pin(lo, last)
	defer v.Release()
	var its [3]*lsm.RangeIter
	var streams [3]recStream
	for i, table := range tables {
		// Under RetainLive, Combined runs sealed entirely below the reclaim
		// horizon are not read: every record in them describes an interval
		// that ended before the oldest retained snapshot, so masking would
		// discard it anyway. Otherwise the horizon is 0 and every run is read.
		var horizon uint64
		if table == TableCombined && e.expiryEnabled() {
			horizon = reclaimHorizon(topo)
		}
		its[i] = v.Range(table, lo, last, horizon, mem[i])
		streams[i].it = its[i]
	}
	var groups []ownerGroup
	for b := lo; ; b++ {
		for i := range streams {
			if err := its[i].Advance(); err != nil {
				return err
			}
			if err := streams[i].advance(); err != nil {
				return err
			}
		}
		groups = groups[:0]
		for {
			g, ok, err := nextGroup(&streams[0], &streams[1], &streams[2])
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if ivs := dedupeIntervals(append(joinGroup(g.froms, g.tos), g.combineds...)); len(ivs) > 0 {
				groups = append(groups, ownerGroup{id: g.id, ivs: ivs})
			}
		}
		groups = expandInheritance(groups, topo)
		e.stats.queries.Add(1)
		if !visit(b, maskOwners(groups, topo)) || b == last {
			return nil
		}
	}
}

// pin captures the consistent snapshot a range query runs against, under
// one shared acquisition of the structural lock: the pinned LSM view, plus
// the range's records, copied and sorted per table, from the shards'
// active trees and — when a checkpoint flush is in flight — frozen trees.
// The union is a consistent cut in every checkpoint phase: before the
// freeze the records are active, during the flush they are frozen (and not
// yet in any run the view sees), and after the install the view has the
// runs and the frozen generation is gone. The topology taken with them is
// what the horizon, inheritance and masking of every block of the range
// judge by, so a catalog change during the range shows in none of it.
func (e *Engine) pin(lo, last uint64) (*lsm.View, [3][][]byte, *Topology) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v, topo := e.db.AcquireView(), e.catalog.Topology()
	// A shard no block of the range routes to holds nothing in it, so a
	// range reads every shard and a single block only its own.
	shards := e.shards
	if lo == last {
		shards = shards[e.shardIndex(lo):][:1]
	}
	var mem [3][][]byte
	for _, s := range shards {
		s.mu.RLock()
		s.active.collect(lo, last, &mem)
		s.mu.RUnlock()
		if s.frozen != nil {
			s.frozen.collect(lo, last, &mem)
		}
	}
	for _, recs := range mem {
		slices.SortFunc(recs, bytes.Compare)
	}
	return v, mem, topo
}

// ownerGroup is one identity's joined intervals: a Ref's, within the block
// all of them share.
type ownerGroup struct {
	id  Ref
	ivs []interval
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
	slices.Sort(froms)
	slices.Sort(tos)
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

// dedupeIntervals sorts ivs in place and drops repeated ranges.
func dedupeIntervals(ivs []interval) []interval {
	slices.SortFunc(ivs, func(a, b interval) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	return slices.CompactFunc(ivs, func(a, b interval) bool { return a.from == b.from && a.to == b.to })
}

// expandInheritance adds implicit records for clone lines (Section 4.2.2):
// for every interval of snapshot line l covering a clone base (l', v), if
// the clone has no override (a record with from == 0 on line l'), an
// implicit record (l', 0, Infinity) is added. The identities that gain one
// go on a worklist, so what a clone inherits its own clones inherit in turn
// (clones of clones).
func expandInheritance(groups []ownerGroup, topo *Topology) []ownerGroup {
	var at map[Ref]int // built on the first inheritance
	var work []int
	// The explicit groups are expanded in order, then the worklist.
	for i, explicit := 0, len(groups); i < explicit || len(work) > 0; i++ {
		k := i
		if i >= explicit {
			k, work = work[len(work)-1], work[:len(work)-1]
		}
		g := groups[k]
		for _, cl := range topo.Clones(g.id.Line) {
			if !slices.ContainsFunc(g.ivs, func(iv interval) bool { return iv.from <= cl.Base && cl.Base < iv.to }) {
				continue
			}
			if at == nil {
				at = make(map[Ref]int, len(groups))
				for j, o := range groups {
					at[o.id] = j
				}
			}
			cid := g.id
			cid.Line = cl.Line
			j, ok := at[cid]
			if !ok {
				j = len(groups)
				at[cid] = j
				groups = append(groups, ownerGroup{id: cid})
			}
			if slices.ContainsFunc(groups[j].ivs, func(iv interval) bool { return iv.from == 0 }) {
				continue // an override, explicit or inherited already
			}
			groups[j].ivs = append(groups[j].ivs, interval{from: 0, to: Infinity, inherited: true})
			work = append(work, j)
		}
	}
	return groups
}

// maskOwners converts joined groups into query results, masking each
// interval against the versions that still exist and dropping owners with
// nothing left. Each owner's Versions is its own copy: the caller may keep
// or change it.
func maskOwners(groups []ownerGroup, topo *Topology) []Owner {
	var out []Owner
	for _, g := range groups {
		id := g.id
		for _, iv := range g.ivs {
			versions := topo.SnapshotsIn(id.Line, iv.from, iv.to)
			live := iv.to == Infinity && topo.IsLive(id.Line)
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
				Versions:  slices.Clone(versions),
				Live:      live,
				Inherited: iv.inherited,
			})
		}
	}
	slices.SortFunc(out, func(a, b Owner) int {
		return cmp.Or(cmp.Compare(a.Line, b.Line), cmp.Compare(a.Inode, b.Inode),
			cmp.Compare(a.Offset, b.Offset), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return out
}
