// Maintenance tests: a host goroutine's passes drain what checkpoints
// pile up, and Compact reports partition failures. Package core_test for
// the model (statemachine_test.go), which holds the answers.
package core_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// maintainDrained runs one final maintenance pass on a quiet store and
// requires the active policy to plan nothing more, its own idle signal.
// Under PolicyLeveled MaxRuns is no such signal: a drained partition
// legitimately keeps one run per level.
func maintainDrained(t *testing.T, eng *core.Engine) {
	t.Helper()
	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	if ms := eng.MaintenanceStats(); ms.PendingJobs != 0 {
		t.Fatalf("a pass on a quiet store left jobs pending: %+v", ms)
	}
}

// hostMaintainer is the maintenance goroutine a host runs beside the
// engine, which starts none: one MaintainNow per kick, a kick sent while
// a pass runs served by the next one.
type hostMaintainer struct {
	kicks chan struct{}
	done  chan error
}

func startHostMaintainer(eng *core.Engine) *hostMaintainer {
	m := &hostMaintainer{kicks: make(chan struct{}, 1), done: make(chan error, 1)}
	go func() {
		var err error
		for range m.kicks {
			if err == nil {
				err = eng.MaintainNow()
			}
		}
		m.done <- err
	}()
	return m
}

// kick asks for a pass without blocking.
func (m *hostMaintainer) kick() {
	select {
	case m.kicks <- struct{}{}:
	default:
	}
}

// stop waits until every kick sent has had its pass, ends the goroutine
// and returns the first pass error.
func (m *hostMaintainer) stop() error {
	close(m.kicks)
	return <-m.done
}

// TestHostMaintenanceKeepsRunCountBounded checks the host's maintenance
// goroutine end to end: runs pile up past the threshold, passes kicked
// after every checkpoint drain them back under it while ingest goes on,
// and query results survive.
func TestHostMaintenanceKeepsRunCountBounded(t *testing.T) {
	const (
		cps       = 30
		perCP     = 200
		blocks    = 128
		threshold = 3
	)
	eng, err := core.Open(core.Options{
		VFS:              storage.NewMemFS(),
		Catalog:          core.NewMemCatalog(),
		Partitions:       4,
		PartitionSpan:    blocks / 4,
		CompactionPolicy: core.PolicyFullAt{Threshold: threshold},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	host := startHostMaintainer(eng)
	m := newModel()
	for _, batch := range cpBatches(hammerStreams(1, cps*perCP, blocks, cps)[0]) {
		for _, o := range batch {
			o.applyTo(eng)
			m.apply(o)
		}
		fCheckpoint(t, eng, batch[0].cp)
		host.kick()
	}
	if err := host.stop(); err != nil {
		t.Fatal(err)
	}

	ms := eng.MaintenanceStats()
	if ms.AutoCompactions == 0 {
		t.Fatalf("maintenance idle despite %d checkpoints: %+v", cps, ms)
	}
	if ms.PendingJobs != 0 {
		t.Fatalf("the pass after the last checkpoint left jobs pending: %+v", ms)
	}
	if ms.MaxRuns > threshold {
		t.Fatalf("MaxRuns = %d above threshold %d", ms.MaxRuns, threshold)
	}
	m.check(t, eng, blocks)
}

// TestCompactContinuesPastPartitionErrors: a failing partition must not
// stop the pass, the error must be reported, and Stats.Compactions must
// count partitions actually compacted — not passes, and not failed
// attempts.
func TestCompactContinuesPastPartitionErrors(t *testing.T) {
	fs := storage.NewMemFS()
	eng, err := core.Open(core.Options{
		VFS:           fs,
		Catalog:       core.NewMemCatalog(),
		Partitions:    4,
		PartitionSpan: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Retain a snapshot so the completed intervals below survive the
	// purge, then add every reference at CP 1 and remove it at CP 2: the
	// compacted state is a single Combined run per partition (From and To
	// empty), which a repeated pass recognizes as nothing-to-merge.
	cat := eng.Catalog()
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

// TestMaintainerReapsZombies: a maintenance pass on the host's goroutine
// reaps zombie snapshots before it merges. Snapshot 1 has a clone, so
// deleting it leaves a zombie, and a sealed run holds its window [1, 2].
// Once the clone line is deleted too, only the zombie pins the reclaim
// horizon, until something reaps it: the pass kicked after the next
// checkpoint must. The pass commits nothing, so the run goes with the next
// commit, a checkpoint's.
func TestMaintainerReapsZombies(t *testing.T) {
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: storage.NewMemFS(), Catalog: cat,
		Retention: core.RetainLive, CompactionPolicy: core.PolicyFullAt{Threshold: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pass := func() {
		t.Helper()
		host := startHostMaintainer(eng)
		host.kick()
		if err := host.stop(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	eng.AddRef(fref(1, 1, 0, 0), 1)
	eng.AddRef(fref(2, 2, 0, 0), 1) // lives throughout
	fCheckpoint(t, eng, 1)
	if err := cat.CreateClone(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	eng.RemoveRef(fref(1, 1, 0, 0), 2)
	fCheckpoint(t, eng, 2)
	pass()
	if sealed := sealedRuns(eng); len(sealed) != 1 || sealed[0].MinCP != 1 || sealed[0].MaxCP != 2 {
		t.Fatalf("fixture: sealed runs %+v, want one over [1, 2]", sealed)
	}

	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := cat.DeleteLine(1); err != nil {
		t.Fatal(err)
	}
	eng.AddRef(fref(3, 3, 0, 0), 3)
	fCheckpoint(t, eng, 3)
	pass()
	if left := sealedRuns(eng); len(left) != 1 || eng.Stats().RunsExpired != 0 {
		t.Fatalf("sealed runs after the maintenance pass: %+v, want the zombie's run kept for the next commit", left)
	}
	fCheckpoint(t, eng, 4)
	if left := sealedRuns(eng); len(left) != 0 {
		t.Fatalf("sealed runs after the next checkpoint: %+v, want the zombie's run dropped", left)
	}
	if st := eng.Stats(); st.RunsExpired != 1 {
		t.Fatalf("RunsExpired = %d, want 1", st.RunsExpired)
	}
	for _, block := range []uint64{2, 3} {
		if owners := fQuery(t, eng, block); len(owners) != 1 || !owners[0].Live {
			t.Fatalf("live block %d: %+v", block, owners)
		}
	}
}
