// Maintenance-concurrency tests live in package core_test so they can
// drive the exported engine API against the internal/naive oracle (which
// itself imports core, so an in-package test would be an import cycle).
package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/naive"
	"github.com/backlogfs/backlog/internal/storage"
)

type oracleOp struct {
	ref    core.Ref
	cp     uint64
	remove bool
}

// genOps builds deterministic per-worker operation streams with disjoint
// identities (inode = worker+1), so the final reference set is independent
// of interleaving and a single-threaded replay can serve as the oracle.
func genOps(workers, opsEach, blocks int, maxCP uint64) [][]oracleOp {
	streams := make([][]oracleOp, workers)
	for w := range streams {
		rng := rand.New(rand.NewSource(int64(4000 + w)))
		var live []core.Ref
		for i := 0; i < opsEach; i++ {
			cp := uint64(1) + uint64(i)*maxCP/uint64(opsEach)
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				r := live[k]
				live = append(live[:k], live[k+1:]...)
				streams[w] = append(streams[w], oracleOp{ref: r, cp: cp, remove: true})
			} else {
				r := core.Ref{
					Block:  uint64(rng.Intn(blocks)),
					Inode:  uint64(w + 1),
					Offset: uint64(i),
					Length: 1,
				}
				live = append(live, r)
				streams[w] = append(streams[w], oracleOp{ref: r, cp: cp})
			}
		}
	}
	return streams
}

// verifyLiveAgainstNaive replays every op into a fresh Section 4.1 naive
// tracker and compares the live reference set of every block against the
// engine.
func verifyLiveAgainstNaive(t *testing.T, eng *core.Engine, streams [][]oracleOp, blocks int) {
	t.Helper()
	oracle, err := naive.New(storage.NewMemFS(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range streams {
		for _, o := range stream {
			if o.remove {
				oracle.RemoveRef(o.ref, o.cp)
			} else {
				oracle.AddRef(o.ref, o.cp)
			}
		}
	}
	for b := uint64(0); b < uint64(blocks); b++ {
		recs, err := oracle.QueryBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		want := map[core.Ref]bool{}
		for _, r := range recs {
			if r.To == core.Infinity {
				want[r.Ref] = true
			}
		}
		owners, err := eng.Query(b)
		if err != nil {
			t.Fatal(err)
		}
		got := map[core.Ref]bool{}
		for _, o := range owners {
			if o.Live {
				got[core.Ref{Block: b, Inode: o.Inode, Offset: o.Offset, Line: o.Line, Length: o.Length}] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("block %d: %d live owners, oracle says %d\n got: %v\nwant: %v",
				b, len(got), len(want), got, want)
		}
		for r := range want {
			if !got[r] {
				t.Fatalf("block %d: oracle reference %+v missing", b, r)
			}
		}
	}
}

// waitMaintained polls until no partition exceeds the maintenance
// threshold (or fails the test after a deadline).
func waitMaintained(t *testing.T, eng *core.Engine) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ms := eng.MaintenanceStats()
		if ms.MaxRuns <= ms.CompactThreshold {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("maintainer did not drain: %+v", ms)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hammerCheckpoints is how many record-carrying checkpoints a hammer
// drives: the square of the largest fanout any of them sets, so Level 0
// fills and merges three times over and Level 1 once. A checkpoint adds
// one run per table and partition whatever the shard count, so nothing
// less than a count of checkpoints reaches a merge trigger.
const hammerCheckpoints = 9

// cpPace keeps ingest workers in step with a free-running checkpointer: a
// worker starts the k-th segment of its stream only once k checkpoints
// have committed, so each of the first hammerCheckpoints checkpoints finds
// records to flush however fast the workers run, while every segment still
// races the checkpoint after it.
type cpPace struct {
	mu        sync.Mutex
	cond      *sync.Cond
	committed int
}

func newCPPace() *cpPace {
	p := &cpPace{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// checkpointed records one committed checkpoint.
func (p *cpPace) checkpointed() {
	p.mu.Lock()
	p.committed++
	p.mu.Unlock()
	p.cond.Broadcast()
}

// release lets every worker run to the end of its stream; the checkpointer
// defers it, so a checkpointer that gives up leaves no worker waiting.
func (p *cpPace) release() {
	p.mu.Lock()
	p.committed = hammerCheckpoints
	p.mu.Unlock()
	p.cond.Broadcast()
}

// ingest replays each stream on its own goroutine, in hammerCheckpoints
// paced segments, and returns when all are done.
func (p *cpPace) ingest(eng *core.Engine, streams [][]oracleOp) {
	var wg sync.WaitGroup
	for _, stream := range streams {
		wg.Add(1)
		go func(stream []oracleOp) {
			defer wg.Done()
			n := len(stream)
			for k := 0; k < hammerCheckpoints; k++ {
				p.mu.Lock()
				for p.committed < k {
					p.cond.Wait()
				}
				p.mu.Unlock()
				for _, o := range stream[k*n/hammerCheckpoints : (k+1)*n/hammerCheckpoints] {
					if o.remove {
						eng.RemoveRef(o.ref, o.cp)
					} else {
						eng.AddRef(o.ref, o.cp)
					}
				}
			}
		}(stream)
	}
	wg.Wait()
}

// TestMaintenanceHammerAgainstNaiveOracle runs AddRef/RemoveRef/Query/
// Checkpoint from many goroutines while the background maintainer
// compacts concurrently, then verifies every block's live reference set
// against the naive oracle. Run it under -race: it is the regression net
// for the view-based lock-free read path and optimistic compaction
// install.
func TestMaintenanceHammerAgainstNaiveOracle(t *testing.T) {
	const (
		workers = 6
		opsEach = 1200
		blocks  = 384
		maxCP   = 12
	)
	eng, err := core.Open(core.Options{
		VFS:              storage.NewMemFS(),
		Catalog:          core.NewMemCatalog(),
		Partitions:       8,
		HashPartitioning: true,
		WriteShards:      workers,
		AutoCompact:      true,
		CompactThreshold: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	streams := genOps(workers, opsEach, blocks, maxCP)

	stop := make(chan struct{})
	errc := make(chan error, 4)
	var aux sync.WaitGroup

	// Checkpointer: every checkpoint also kicks the maintainer, so
	// background compactions race the whole workload.
	var cpMu sync.Mutex
	lastCP := uint64(maxCP + 1)
	pace := newCPPace()
	aux.Add(1)
	go func() {
		defer aux.Done()
		defer pace.release()
		for cp := uint64(maxCP + 2); ; cp++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Checkpoint(cp); err != nil {
				errc <- fmt.Errorf("checkpoint %d: %w", cp, err)
				return
			}
			cpMu.Lock()
			lastCP = cp
			cpMu.Unlock()
			pace.checkpointed()
			time.Sleep(time.Millisecond)
		}
	}()

	// Query hammer: results race with ingest by design; this drives the
	// pinned-view read path concurrently with compaction installs.
	aux.Add(1)
	go func() {
		defer aux.Done()
		rng := rand.New(rand.NewSource(77))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Query(uint64(rng.Intn(blocks))); err != nil {
				errc <- fmt.Errorf("concurrent query: %w", err)
				return
			}
		}
	}()

	pace.ingest(eng, streams)
	close(stop)
	aux.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	cpMu.Lock()
	final := lastCP + 1
	cpMu.Unlock()
	if err := eng.Checkpoint(final); err != nil {
		t.Fatal(err)
	}
	waitMaintained(t, eng)

	ms := eng.MaintenanceStats()
	if !ms.Enabled {
		t.Fatal("maintainer not enabled")
	}
	if ms.AutoCompactions == 0 {
		t.Fatalf("background maintainer never compacted: %+v", ms)
	}
	verifyLiveAgainstNaive(t, eng, streams, blocks)
}

// TestAutoCompactKeepsRunCountBounded checks the scheduler end to end on
// a single-threaded workload: runs pile up past the threshold, the
// maintainer drains them back under it, and query results survive.
func TestAutoCompactKeepsRunCountBounded(t *testing.T) {
	const (
		cps    = 30
		perCP  = 200
		blocks = 128
	)
	eng, err := core.Open(core.Options{
		VFS:              storage.NewMemFS(),
		Catalog:          core.NewMemCatalog(),
		Partitions:       4,
		HashPartitioning: true,
		AutoCompact:      true,
		CompactThreshold: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var streams [][]oracleOp
	var ops []oracleOp
	rng := rand.New(rand.NewSource(5))
	for cp := uint64(1); cp <= cps; cp++ {
		for i := 0; i < perCP; i++ {
			ref := core.Ref{
				Block:  uint64(rng.Intn(blocks)),
				Inode:  1,
				Offset: uint64(cp)<<20 | uint64(i),
				Length: 1,
			}
			eng.AddRef(ref, cp)
			ops = append(ops, oracleOp{ref: ref, cp: cp})
		}
		if err := eng.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	streams = append(streams, ops)
	waitMaintained(t, eng)

	ms := eng.MaintenanceStats()
	if ms.AutoCompactions == 0 {
		t.Fatalf("maintainer idle despite %d checkpoints: %+v", cps, ms)
	}
	if ms.MaxRuns > ms.CompactThreshold {
		t.Fatalf("MaxRuns = %d above threshold %d", ms.MaxRuns, ms.CompactThreshold)
	}
	verifyLiveAgainstNaive(t, eng, streams, blocks)
}

// TestCompactThresholdClampedAboveSteadyState: a fully compacted
// partition holds up to two runs (From + Combined), so a configured
// threshold of 1 must clamp to 2 — otherwise the maintainer would
// re-merge an already-minimal partition forever.
func TestCompactThresholdClampedAboveSteadyState(t *testing.T) {
	eng, err := core.Open(core.Options{
		VFS:              storage.NewMemFS(),
		Catalog:          core.NewMemCatalog(),
		AutoCompact:      true,
		CompactThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.MaintenanceStats().CompactThreshold; got != 2 {
		t.Fatalf("effective threshold = %d, want 2", got)
	}
	// Live and completed references together force both a From and a
	// Combined run out of compaction; the maintainer must still converge.
	cat := eng.Catalog().(*core.MemCatalog)
	if err := cat.CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	for cp := uint64(1); cp <= 6; cp++ {
		for i := 0; i < 64; i++ {
			eng.AddRef(core.Ref{Block: uint64(i), Inode: cp, Offset: uint64(i), Length: 1}, cp)
		}
		if cp > 1 {
			for i := 0; i < 64; i++ {
				eng.RemoveRef(core.Ref{Block: uint64(i), Inode: cp - 1, Offset: uint64(i), Length: 1}, cp)
			}
		}
		if err := eng.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	waitMaintained(t, eng)
}

// TestCompactContinuesPastPartitionErrors: a failing partition must not
// stop the pass, the error must be reported, and Stats.Compactions must
// count partitions actually compacted — not passes, and not failed
// attempts.
func TestCompactContinuesPastPartitionErrors(t *testing.T) {
	fs := storage.NewMemFS()
	eng, err := core.Open(core.Options{
		VFS:              fs,
		Catalog:          core.NewMemCatalog(),
		Partitions:       4,
		HashPartitioning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Retain a snapshot so the completed intervals below survive the
	// purge, then add every reference at CP 1 and remove it at CP 2: the
	// compacted state is a single Combined run per partition (From and To
	// empty), which a repeated pass recognizes as nothing-to-merge.
	cat := eng.Catalog().(*core.MemCatalog)
	if err := cat.CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		eng.AddRef(core.Ref{Block: uint64(i), Inode: 1, Offset: uint64(i), Length: 1}, 1)
	}
	if err := eng.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		eng.RemoveRef(core.Ref{Block: uint64(i), Inode: 1, Offset: uint64(i), Length: 1}, 2)
	}
	if err := eng.Checkpoint(2); err != nil {
		t.Fatal(err)
	}

	// Every partition now holds runs. Fail all writes shortly into the
	// pass: the first partition's merge dies, later partitions must still
	// be attempted (and die too — the plan is global), and the error must
	// mention more than one partition.
	fs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: 1})
	err = eng.Compact()
	if err == nil {
		t.Fatal("Compact succeeded under write-failure injection")
	}
	var failed int
	for p := 0; p < 4; p++ {
		if strings.Contains(err.Error(), fmt.Sprintf("partition %d", p)) {
			failed++
		}
	}
	if failed < 2 {
		t.Fatalf("joined error covers %d partitions, want >= 2: %v", failed, err)
	}
	if got := eng.Stats().Compactions; got != 0 {
		t.Fatalf("Compactions = %d after failed pass, want 0", got)
	}

	// Clear the plan: the pass completes and counts one compaction per
	// partition with mergeable runs.
	fs.SetFailurePlan(storage.FailurePlan{})
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Compactions; got != 4 {
		t.Fatalf("Compactions = %d, want 4 (one per partition)", got)
	}
	// A second pass has nothing to merge and counts nothing.
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Compactions; got != 4 {
		t.Fatalf("Compactions = %d after no-op pass, want 4", got)
	}
}
