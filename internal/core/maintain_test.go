// Background-maintenance tests: the scheduler drains what checkpoints pile
// up, and Compact reports partition failures. Package core_test for the
// model (statemachine_test.go), which holds the answers.
package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// waitMaintained polls until the active policy plans no further jobs, its
// own idle signal (or fails the test after a deadline). Under
// PolicyLeveled MaxRuns is no such signal: a drained partition
// legitimately keeps one run per level.
func waitMaintained(t *testing.T, eng *core.Engine) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ms := eng.MaintenanceStats()
		if ms.PendingJobs == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("maintainer did not drain: %+v", ms)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAutoCompactKeepsRunCountBounded checks the scheduler end to end on
// a single-threaded workload: runs pile up past the threshold, the
// maintainer drains them back under it, and query results survive.
func TestAutoCompactKeepsRunCountBounded(t *testing.T) {
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
		HashPartitioning: true,
		AutoCompact:      true,
		CompactionPolicy: core.PolicyFullAt{Threshold: threshold},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	m := newModel()
	for _, batch := range cpBatches(hammerStreams(1, cps*perCP, blocks, cps)[0]) {
		for _, o := range batch {
			o.applyTo(eng)
			m.apply(o)
		}
		fCheckpoint(t, eng, batch[0].cp)
	}
	waitMaintained(t, eng)

	ms := eng.MaintenanceStats()
	if ms.AutoCompactions == 0 {
		t.Fatalf("maintainer idle despite %d checkpoints: %+v", cps, ms)
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

// TestMaintainerReapsZombies: a background maintenance pass reaps zombie
// snapshots before it merges. Snapshot 1 has a clone, so deleting it leaves
// a zombie, and a sealed run holds its window [1, 2]. Once the clone line
// is deleted too, only the zombie pins the reclaim horizon, until something
// reaps it: the pass the next checkpoint kicks must, and the commit of the
// merge it runs then drops the run.
func TestMaintainerReapsZombies(t *testing.T) {
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: storage.NewMemFS(), Catalog: cat, AutoCompact: true,
		Retention: core.RetainLive, CompactionPolicy: core.PolicyFullAt{Threshold: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
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
	waitMaintained(t, eng)
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
	waitMaintained(t, eng)
	if left := sealedRuns(eng); len(left) != 0 {
		t.Fatalf("sealed runs after the maintenance pass: %+v, want the zombie's run dropped", left)
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
