package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/storage"
)

// stepwisePolicy is the reference for PolicyLeveled's cascades: the
// leveled planner that merges one level per job. A level where some table
// holds Fanout runs, and whose merge shrinks its run count, merges every
// run it holds (but the Combined runs the horizon has passed) one level
// up; a level the merge's output makes due waits for the re-plan after
// the batch. PolicyLeveled must leave the same runs behind after every
// maintenance pass while writing fewer bytes.
type stepwisePolicy struct{}

func (stepwisePolicy) Name() string { return "stepwise" }

func (stepwisePolicy) Plan(v *lsm.View, ctx core.PlanContext) []core.CompactionJob {
	var jobs []core.CompactionJob
	for p := 0; p < ctx.Partitions; p++ {
		levels := map[int]*core.CompactionJob{}
		at := func(level int) *core.CompactionJob {
			if levels[level] == nil {
				levels[level] = &core.CompactionJob{Partition: p, OutputLevel: level + 1}
			}
			return levels[level]
		}
		for _, r := range v.Runs(core.TableFrom, p) {
			job := at(r.Level())
			job.From = append(job.From, r)
		}
		for _, r := range v.Runs(core.TableTo, p) {
			job := at(r.Level())
			job.To = append(job.To, r)
		}
		for _, r := range v.Runs(core.TableCombined, p) {
			if ctx.Tiered && ctx.Horizon > 0 && r.DroppableBelow(ctx.Horizon) {
				continue
			}
			job := at(r.Level())
			job.Combined = append(job.Combined, r)
		}
		for _, job := range levels {
			from, to, comb := len(job.From), len(job.To), len(job.Combined)
			if from < ctx.Fanout && to < ctx.Fanout && comb < ctx.Fanout {
				continue
			}
			outputs := 0
			if from > 0 {
				outputs++
			}
			if to > 0 {
				outputs++
			}
			if comb > 0 || (from > 0 && to > 0) {
				outputs++
			}
			if ctx.Tiered && slices.ContainsFunc(job.Combined, func(r *lsm.Run) bool { return r.Overrides() > 0 }) {
				outputs++
			}
			if from+to+comb > outputs {
				jobs = append(jobs, *job)
			}
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].OutputLevel != jobs[j].OutputLevel {
			return jobs[i].OutputLevel < jobs[j].OutputLevel
		}
		return jobs[i].Partition < jobs[j].Partition
	})
	return jobs
}

// cascadePair drives two engines through the same updates, catalog
// changes and maintenance passes: engs[0] under PolicyLeveled, engs[1]
// under the stepwise reference.
type cascadePair struct {
	t      *testing.T
	engs   [2]*core.Engine
	cats   [2]*core.MemCatalog
	blocks uint64
	folds  int // passes in which the folded engine merged less often
	// merges and bytes total each engine's merges and compaction bytes.
	merges, bytes [2]uint64
}

func newCascadePair(t *testing.T, opts core.Options, blocks uint64) *cascadePair {
	t.Helper()
	cp := &cascadePair{t: t, blocks: blocks}
	for i, pol := range []core.CompactionPolicy{core.PolicyLeveled{}, stepwisePolicy{}} {
		o := opts
		o.VFS, o.Catalog, o.CompactionPolicy = storage.NewMemFS(), core.NewMemCatalog(), pol
		eng, err := core.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		cp.engs[i], cp.cats[i] = eng, o.Catalog
	}
	return cp
}

func (cp *cascadePair) apply(o refOp) {
	for _, eng := range cp.engs {
		o.applyTo(eng)
	}
}

// catalog applies one catalog change to both engines' catalogs.
func (cp *cascadePair) catalog(change func(*core.MemCatalog) error) {
	cp.t.Helper()
	for _, cat := range cp.cats {
		if err := change(cat); err != nil {
			cp.t.Fatal(err)
		}
	}
}

// pass checkpoints both engines at cpn and runs a maintenance pass on
// each, checking every run's header against its page after it, then checks
// that they hold the same runs, that the folded engine
// merged no more often and wrote no more compaction bytes in the pass,
// and strictly fewer bytes when it merged less often.
func (cp *cascadePair) pass(cpn uint64) {
	cp.t.Helper()
	var merges, bytes [2]uint64
	for i, eng := range cp.engs {
		before := eng.Stats()
		if err := eng.Checkpoint(cpn); err != nil {
			cp.t.Fatal(err)
		}
		if err := eng.MaintainNow(); err != nil {
			cp.t.Fatal(err)
		}
		checkHeaders(cp.t, eng, fmt.Sprintf("CP %d, after the pass", cpn))
		after := eng.Stats()
		merges[i] = after.Compactions - before.Compactions
		bytes[i] = after.CompactWriteBytes - before.CompactWriteBytes
		cp.merges[i] += merges[i]
		cp.bytes[i] += bytes[i]
	}
	if got, want := runTable(cp.engs[0]), runTable(cp.engs[1]); !slices.Equal(got, want) {
		cp.t.Fatalf("CP %d: runs after the pass differ\nfolded:   %v\nstepwise: %v", cpn, got, want)
	}
	switch {
	case merges[0] > merges[1]:
		cp.t.Fatalf("CP %d: %d merges, the stepwise planner needed %d", cpn, merges[0], merges[1])
	case bytes[0] > bytes[1]:
		cp.t.Fatalf("CP %d: wrote %d compaction bytes, the stepwise planner %d", cpn, bytes[0], bytes[1])
	case merges[0] < merges[1]:
		cp.folds++
		if bytes[0] >= bytes[1] {
			cp.t.Fatalf("CP %d: folded %d merges into %d but wrote %d compaction bytes, the stepwise planner %d",
				cpn, merges[1], merges[0], bytes[0], bytes[1])
		}
	}
}

// done fails the test if no pass folded a cascade, and logs the totals.
func (cp *cascadePair) done() {
	cp.t.Helper()
	if cp.folds == 0 {
		cp.t.Fatal("no pass folded a cascade")
	}
	cp.t.Logf("%d passes folded a cascade: %d merges writing %d bytes, stepwise %d writing %d",
		cp.folds, cp.merges[0], cp.bytes[0], cp.merges[1], cp.bytes[1])
}

// sameAnswers queries every block of both engines.
func (cp *cascadePair) sameAnswers(cpn uint64) {
	cp.t.Helper()
	for b := range cp.blocks {
		got, err := cp.engs[0].Query(b)
		if err != nil {
			cp.t.Fatal(err)
		}
		want, err := cp.engs[1].Query(b)
		if err != nil {
			cp.t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			cp.t.Fatalf("CP %d, block %d: folded engine answers %v, stepwise %v", cpn, b, got, want)
		}
	}
}

// runTable lists an engine's runs by what a merge decides about them —
// table, partition, level, records, CP window, overrides, block range and
// the CP it was built at — but not by file, whose IDs the two engines
// allocate differently, nor by size, which a Bloom filter sized for the
// wider inputs of a folded merge may change.
func runTable(eng *core.Engine) []string {
	var rows []string
	for _, ri := range eng.RunInfos() {
		rows = append(rows, fmt.Sprintf("%s/p%d/L%d n=%d cp=%d w=[%d,%d] ov=%d b=[%d,%d]",
			ri.Table, ri.Partition, ri.Level, ri.Records, ri.CP, ri.MinCP, ri.MaxCP, ri.Overrides, ri.MinBlock, ri.MaxBlock))
	}
	slices.Sort(rows)
	return rows
}

// TestLeveledCascadeMatchesStepwise checks PolicyLeveled's folded
// cascades against the stepwise reference: after every maintenance pass
// both engines hold the same runs and give the same answers, and the
// folded engine never merges more often or writes more bytes, and writes
// fewer whenever it merged less often.
//
// The "levels" rows are the levels experiment's add-only ingest (128 CPs,
// 4 range partitions), where every merge's output is as predicted. The
// "churn" rows remove references at every age, keep a sliding window of
// snapshots and a clone under RetainLive, so levels hold To and Combined
// runs when they fold, overrides and sealed runs appear and expiry drops
// runs the horizon passed.
func TestLeveledCascadeMatchesStepwise(t *testing.T) {
	for _, fanout := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("levels/fanout=%d", fanout), func(t *testing.T) {
			const blocks = 1 << 10
			pair := newCascadePair(t, core.Options{Partitions: 4, PartitionSpan: blocks / 4, Fanout: fanout}, blocks)
			rng := rand.New(rand.NewSource(1))
			for cpn := uint64(1); cpn <= 128; cpn++ {
				for i := range 64 {
					pair.apply(refOp{ref: core.Ref{Block: uint64(rng.Intn(blocks)), Inode: 2 + cpn, Offset: uint64(i), Length: 1}, cp: cpn})
				}
				pair.pass(cpn)
				if cpn%32 == 0 {
					pair.sameAnswers(cpn)
				}
			}
			pair.done()
		})
	}
	for _, fanout := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("churn/fanout=%d", fanout), func(t *testing.T) {
			const blocks = 256
			pair := newCascadePair(t, core.Options{
				Partitions: 4, PartitionSpan: blocks / 4, Fanout: fanout, Retention: core.RetainLive,
			}, blocks)
			rng := rand.New(rand.NewSource(int64(fanout)))
			var live []core.Ref
			var snaps []uint64
			lines := []uint64{0}
			for cpn := uint64(1); cpn <= 96; cpn++ {
				for i := range 40 {
					if len(live) > 0 && rng.Intn(3) == 0 {
						k := rng.Intn(len(live))
						pair.apply(refOp{ref: live[k], cp: cpn, remove: true})
						live = slices.Delete(live, k, k+1)
						continue
					}
					r := core.Ref{Block: uint64(rng.Intn(blocks)), Inode: 2 + cpn, Offset: uint64(i), Line: lines[rng.Intn(len(lines))], Length: 1}
					pair.apply(refOp{ref: r, cp: cpn})
					live = append(live, r)
				}
				switch {
				case cpn%4 == 0:
					pair.catalog(func(c *core.MemCatalog) error { return c.CreateSnapshot(0, cpn) })
					snaps = append(snaps, cpn)
					if len(snaps) > 3 {
						pair.catalog(func(c *core.MemCatalog) error { return c.DeleteSnapshot(0, snaps[0]) })
						snaps = snaps[1:]
					}
				case cpn == 10:
					pair.catalog(func(c *core.MemCatalog) error { return c.CreateClone(1, 0, 8) })
					lines = append(lines, 1)
				case cpn == 70:
					pair.catalog(func(c *core.MemCatalog) error { return c.DeleteLine(1) })
					lines = lines[:1]
					live = slices.DeleteFunc(live, func(r core.Ref) bool { return r.Line == 1 })
				}
				pair.pass(cpn)
				if cpn%8 == 0 {
					pair.sameAnswers(cpn)
				}
			}
			pair.done()
		})
	}
}
