package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// testEnv bundles an engine with its catalog and memfs for tests.
type testEnv struct {
	fs  *storage.MemFS
	cat *MemCatalog
	eng *Engine
}

func newTestEnv(t *testing.T, opts Options) *testEnv {
	t.Helper()
	fs := storage.NewMemFS()
	cat := NewMemCatalog()
	opts.VFS = fs
	opts.Catalog = cat
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{fs: fs, cat: cat, eng: eng}
}

func ref(block, inode, offset, line uint64) Ref {
	return Ref{Block: block, Inode: inode, Offset: offset, Line: line, Length: 1}
}

func mustQuery(t *testing.T, e *Engine, block uint64) []Owner {
	t.Helper()
	owners, err := e.Query(block)
	if err != nil {
		t.Fatal(err)
	}
	return owners
}

func mustCheckpoint(t *testing.T, e *Engine, cp uint64) {
	t.Helper()
	if err := e.Checkpoint(cp); err != nil {
		t.Fatal(err)
	}
}

func mustCompact(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveReferenceQuery(t *testing.T) {
	env := newTestEnv(t, Options{})
	env.eng.AddRef(ref(100, 2, 0, 0), 4)
	env.eng.AddRef(ref(101, 2, 1, 0), 4)
	mustCheckpoint(t, env.eng, 4)

	owners := mustQuery(t, env.eng, 100)
	if len(owners) != 1 {
		t.Fatalf("owners = %+v", owners)
	}
	o := owners[0]
	if o.Inode != 2 || o.Offset != 0 || o.Line != 0 || !o.Live || o.From != 4 || o.To != Infinity {
		t.Fatalf("owner = %+v", o)
	}
	if len(mustQuery(t, env.eng, 999)) != 0 {
		t.Fatal("phantom owner")
	}
}

func TestQueryFindsWSRecordsBeforeCheckpoint(t *testing.T) {
	env := newTestEnv(t, Options{})
	env.eng.AddRef(ref(100, 2, 0, 0), 4)
	// No checkpoint yet: the write store must serve the query.
	owners := mustQuery(t, env.eng, 100)
	if len(owners) != 1 || !owners[0].Live {
		t.Fatalf("WS query: %+v", owners)
	}
}

func TestPaperInode2Example(t *testing.T) {
	// Section 4.1: inode 2 created with two blocks at time 4, truncated to
	// one block at time 7.
	env := newTestEnv(t, Options{})
	env.eng.AddRef(ref(100, 2, 0, 0), 4)
	env.eng.AddRef(ref(101, 2, 1, 0), 4)
	mustCheckpoint(t, env.eng, 4)
	if err := env.cat.CreateSnapshot(0, 4); err != nil {
		t.Fatal(err)
	}
	env.eng.RemoveRef(ref(101, 2, 1, 0), 7)
	mustCheckpoint(t, env.eng, 7)

	// Block 100: live, interval [4, inf).
	o100 := mustQuery(t, env.eng, 100)
	if len(o100) != 1 || !o100[0].Live || o100[0].From != 4 {
		t.Fatalf("block 100: %+v", o100)
	}
	if len(o100[0].Versions) != 1 || o100[0].Versions[0] != 4 {
		t.Fatalf("block 100 versions: %+v", o100[0].Versions)
	}
	// Block 101: [4,7), only snapshot 4 references it.
	o101 := mustQuery(t, env.eng, 101)
	if len(o101) != 1 || o101[0].Live || o101[0].From != 4 || o101[0].To != 7 {
		t.Fatalf("block 101: %+v", o101)
	}
	if len(o101[0].Versions) != 1 || o101[0].Versions[0] != 4 {
		t.Fatalf("block 101 versions: %+v", o101[0].Versions)
	}
	// Delete the snapshot: block 101 has no owners left.
	if err := env.cat.DeleteSnapshot(0, 4); err != nil {
		t.Fatal(err)
	}
	if got := mustQuery(t, env.eng, 101); len(got) != 0 {
		t.Fatalf("block 101 after snapshot delete: %+v", got)
	}
}

func TestPaperBlock103Example(t *testing.T) {
	// Section 4.2.1: block 103, inode 4: [10,12), [16,20); inode 5: [30,∞).
	env := newTestEnv(t, Options{})
	e := env.eng
	e.AddRef(ref(103, 4, 0, 0), 10)
	mustCheckpoint(t, e, 10)
	if err := env.cat.CreateSnapshot(0, 10); err != nil {
		t.Fatal(err)
	}
	e.RemoveRef(ref(103, 4, 0, 0), 12)
	mustCheckpoint(t, e, 12)
	e.AddRef(ref(103, 4, 0, 0), 16)
	mustCheckpoint(t, e, 16)
	if err := env.cat.CreateSnapshot(0, 16); err != nil {
		t.Fatal(err)
	}
	e.RemoveRef(ref(103, 4, 0, 0), 20)
	mustCheckpoint(t, e, 20)
	e.AddRef(ref(103, 5, 2, 0), 30)
	mustCheckpoint(t, e, 30)

	owners := mustQuery(t, e, 103)
	if len(owners) != 3 {
		t.Fatalf("owners = %+v", owners)
	}
	// Sorted by line, inode, offset, from.
	if owners[0].Inode != 4 || owners[0].From != 10 || owners[0].To != 12 {
		t.Fatalf("owner[0] = %+v", owners[0])
	}
	if owners[1].Inode != 4 || owners[1].From != 16 || owners[1].To != 20 {
		t.Fatalf("owner[1] = %+v", owners[1])
	}
	if owners[2].Inode != 5 || owners[2].From != 30 || owners[2].To != Infinity || !owners[2].Live {
		t.Fatalf("owner[2] = %+v", owners[2])
	}
	// The same answers after compaction.
	mustCompact(t, e)
	owners2 := mustQuery(t, e, 103)
	if len(owners2) != 3 {
		t.Fatalf("owners after compaction = %+v", owners2)
	}
	for i := range owners {
		if owners[i].From != owners2[i].From || owners[i].To != owners2[i].To ||
			owners[i].Inode != owners2[i].Inode {
			t.Fatalf("compaction changed owner %d: %+v vs %+v", i, owners[i], owners2[i])
		}
	}
}

func TestProactivePruningSameCP(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	// Added and removed within one CP: nothing may reach disk.
	e.AddRef(ref(50, 9, 0, 0), 3)
	e.RemoveRef(ref(50, 9, 0, 0), 3)
	if e.WSLen() != 0 {
		t.Fatalf("WSLen = %d after cancelling pair", e.WSLen())
	}
	mustCheckpoint(t, e, 3)
	if got := mustQuery(t, e, 50); len(got) != 0 {
		t.Fatalf("cancelled ref visible: %+v", got)
	}
	st := e.Stats()
	if st.PrunedRemoves != 1 {
		t.Fatalf("PrunedRemoves = %d", st.PrunedRemoves)
	}
	if st.RecordsFlushed != 0 {
		t.Fatalf("RecordsFlushed = %d, want 0", st.RecordsFlushed)
	}
}

func TestProactivePruningReallocation(t *testing.T) {
	// A reference live since CP 3, removed and re-added in CP 4: one
	// continuous interval starting at 3 (Section 5.1).
	env := newTestEnv(t, Options{})
	e := env.eng
	e.AddRef(ref(60, 9, 0, 0), 3)
	mustCheckpoint(t, e, 3)
	if err := env.cat.CreateSnapshot(0, 3); err != nil {
		t.Fatal(err)
	}
	e.RemoveRef(ref(60, 9, 0, 0), 4)
	e.AddRef(ref(60, 9, 0, 0), 4)
	if st := e.Stats(); st.PrunedAdds != 1 {
		t.Fatalf("PrunedAdds = %d", st.PrunedAdds)
	}
	mustCheckpoint(t, e, 4)
	owners := mustQuery(t, e, 60)
	if len(owners) != 1 || owners[0].From != 3 || owners[0].To != Infinity || !owners[0].Live {
		t.Fatalf("owners = %+v", owners)
	}
}

func TestDeduplicationSharedBlock(t *testing.T) {
	// Many inodes referencing one block — the paper's motivating query
	// (Section 4.1: the block of zeros).
	env := newTestEnv(t, Options{})
	e := env.eng
	for ino := uint64(1); ino <= 10; ino++ {
		e.AddRef(ref(777, ino, ino*2, 0), 5)
	}
	mustCheckpoint(t, e, 5)
	owners := mustQuery(t, e, 777)
	if len(owners) != 10 {
		t.Fatalf("got %d owners, want 10", len(owners))
	}
	for i, o := range owners {
		if o.Inode != uint64(i+1) || !o.Live {
			t.Fatalf("owner[%d] = %+v", i, o)
		}
	}
}

func TestCloneStructuralInheritance(t *testing.T) {
	// Section 4.2.2: block 103 allocated at 30 on line 0, snapshot taken,
	// cloned to line 1, then COWed to block 107 at CP 43 in the clone.
	env := newTestEnv(t, Options{})
	e := env.eng
	e.AddRef(ref(103, 5, 2, 0), 30)
	mustCheckpoint(t, e, 30)
	if err := env.cat.CreateSnapshot(0, 40); err != nil {
		t.Fatal(err)
	}
	if err := env.cat.CreateClone(1, 0, 40); err != nil {
		t.Fatal(err)
	}

	// Before the COW, block 103 must show an inherited owner on line 1.
	owners := mustQuery(t, e, 103)
	if len(owners) != 2 {
		t.Fatalf("pre-COW owners = %+v", owners)
	}
	if owners[0].Line != 0 || owners[1].Line != 1 || !owners[1].Inherited || !owners[1].Live {
		t.Fatalf("pre-COW owners = %+v", owners)
	}

	// COW in the clone: To(103, line 1, 43), From(107, line 1, 43).
	e.RemoveRef(ref(103, 5, 2, 1), 43)
	e.AddRef(ref(107, 5, 2, 1), 43)
	mustCheckpoint(t, e, 43)

	owners = mustQuery(t, e, 103)
	// Line 0 still owns it (live + snapshot 40); line 1's override [0,43)
	// covers no retained version of line 1, so it is masked out.
	if len(owners) != 1 || owners[0].Line != 0 {
		t.Fatalf("post-COW owners of 103 = %+v", owners)
	}
	o107 := mustQuery(t, e, 107)
	if len(o107) != 1 || o107[0].Line != 1 || o107[0].From != 43 || !o107[0].Live {
		t.Fatalf("owners of 107 = %+v", o107)
	}

	// With a snapshot of the clone taken before the COW, the override
	// interval [0,43) gains a visible version.
	env2 := newTestEnv(t, Options{})
	e2 := env2.eng
	e2.AddRef(ref(103, 5, 2, 0), 30)
	mustCheckpoint(t, e2, 30)
	if err := env2.cat.CreateSnapshot(0, 40); err != nil {
		t.Fatal(err)
	}
	if err := env2.cat.CreateClone(1, 0, 40); err != nil {
		t.Fatal(err)
	}
	if err := env2.cat.CreateSnapshot(1, 41); err != nil {
		t.Fatal(err)
	}
	e2.RemoveRef(ref(103, 5, 2, 1), 43)
	e2.AddRef(ref(107, 5, 2, 1), 43)
	mustCheckpoint(t, e2, 43)
	owners = mustQuery(t, e2, 103)
	if len(owners) != 2 {
		t.Fatalf("owners with clone snapshot = %+v", owners)
	}
	if owners[1].Line != 1 || owners[1].From != 0 || owners[1].To != 43 ||
		len(owners[1].Versions) != 1 || owners[1].Versions[0] != 41 {
		t.Fatalf("clone override owner = %+v", owners[1])
	}
}

func TestClonesOfClones(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	e.AddRef(ref(200, 3, 0, 0), 10)
	mustCheckpoint(t, e, 10)
	if err := env.cat.CreateSnapshot(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := env.cat.CreateClone(1, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := env.cat.CreateSnapshot(1, 20); err != nil {
		t.Fatal(err)
	}
	if err := env.cat.CreateClone(2, 1, 20); err != nil {
		t.Fatal(err)
	}
	owners := mustQuery(t, e, 200)
	if len(owners) != 3 {
		t.Fatalf("owners = %+v", owners)
	}
	lines := []uint64{owners[0].Line, owners[1].Line, owners[2].Line}
	if lines[0] != 0 || lines[1] != 1 || lines[2] != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !owners[1].Inherited || !owners[2].Inherited {
		t.Fatal("clone owners not marked inherited")
	}
}

func TestCompactionPurgesDeletedSnapshots(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	// Block 10 lives only in snapshot 5 which we then delete.
	e.AddRef(ref(10, 1, 0, 0), 5)
	mustCheckpoint(t, e, 5)
	if err := env.cat.CreateSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	e.RemoveRef(ref(10, 1, 0, 0), 6)
	mustCheckpoint(t, e, 6)
	// Block 11 stays live throughout.
	e.AddRef(ref(11, 1, 1, 0), 7)
	mustCheckpoint(t, e, 7)

	if err := env.cat.DeleteSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	mustCompact(t, e)

	if got := mustQuery(t, e, 10); len(got) != 0 {
		t.Fatalf("purged block still owned: %+v", got)
	}
	if got := mustQuery(t, e, 11); len(got) != 1 || !got[0].Live {
		t.Fatalf("live block lost: %+v", got)
	}
	if e.Stats().RecordsPurged == 0 {
		t.Fatal("no records purged")
	}
	// After compaction the To table is empty and From/Combined have at
	// most one run each.
	if e.DB().Table(TableTo).TotalRecords() != 0 {
		t.Fatal("To table not empty after compaction")
	}
	if n := len(e.DB().Table(TableFrom).Runs(0)); n > 1 {
		t.Fatalf("%d From runs after compaction", n)
	}
}

func TestCompactionPreservesZombieInheritance(t *testing.T) {
	// A snapshot is cloned and then deleted (zombie). Compaction must keep
	// the parent records so the clone still inherits.
	env := newTestEnv(t, Options{})
	e := env.eng
	e.AddRef(ref(300, 8, 0, 0), 10)
	mustCheckpoint(t, e, 10)
	if err := env.cat.CreateSnapshot(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := env.cat.CreateClone(1, 0, 10); err != nil {
		t.Fatal(err)
	}
	// The parent's live FS drops the block, and the snapshot is deleted:
	// only the clone still needs the record.
	e.RemoveRef(ref(300, 8, 0, 0), 12)
	mustCheckpoint(t, e, 12)
	if err := env.cat.DeleteSnapshot(0, 10); err != nil {
		t.Fatal(err)
	}
	mustCompact(t, e)

	owners := mustQuery(t, e, 300)
	if len(owners) != 1 || owners[0].Line != 1 || !owners[0].Inherited || !owners[0].Live {
		t.Fatalf("zombie-inherited owner = %+v", owners)
	}

	// Kill the clone; reap; compact: the record can finally go.
	if err := env.cat.DeleteLine(1); err != nil {
		t.Fatal(err)
	}
	env.cat.ReapZombies()
	mustCompact(t, e)
	if got := mustQuery(t, e, 300); len(got) != 0 {
		t.Fatalf("record survived zombie reaping: %+v", got)
	}
}

func TestCompactionShrinksDatabase(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	// Create churn: refs that live for 2 CPs then die, never snapshotted.
	cp := uint64(1)
	for round := 0; round < 20; round++ {
		for i := uint64(0); i < 100; i++ {
			e.AddRef(ref(1000+i, i, 0, 0), cp)
		}
		mustCheckpoint(t, e, cp)
		cp++
		for i := uint64(0); i < 100; i++ {
			e.RemoveRef(ref(1000+i, i, 0, 0), cp)
		}
		mustCheckpoint(t, e, cp)
		cp++
	}
	before := e.SizeBytes()
	runsBefore := e.RunCount()
	mustCompact(t, e)
	after := e.SizeBytes()
	if after >= before {
		t.Fatalf("compaction grew DB: %d -> %d", before, after)
	}
	if e.RunCount() >= runsBefore {
		t.Fatalf("compaction did not reduce runs: %d -> %d", runsBefore, e.RunCount())
	}
	// Everything was dead; the whole database should be (nearly) empty.
	if got := e.DB().Table(TableCombined).TotalRecords(); got != 0 {
		t.Fatalf("%d combined records survived, want 0", got)
	}
}

func TestRelocateBlock(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	e.AddRef(ref(40, 6, 3, 0), 5)
	mustCheckpoint(t, e, 5)
	if err := env.cat.CreateSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	e.RemoveRef(ref(40, 6, 3, 0), 8)
	mustCheckpoint(t, e, 8)
	// Also a live ref on the same block from another inode.
	e.AddRef(ref(40, 7, 0, 0), 9)
	mustCheckpoint(t, e, 9)

	if err := e.RelocateBlock(40, 4040); err != nil {
		t.Fatal(err)
	}

	if got := mustQuery(t, e, 40); len(got) != 0 {
		t.Fatalf("old block still owned: %+v", got)
	}
	owners := mustQuery(t, e, 4040)
	if len(owners) != 2 {
		t.Fatalf("new block owners = %+v", owners)
	}
	if owners[0].Inode != 6 || owners[0].From != 5 || owners[0].To != 8 {
		t.Fatalf("transplanted history = %+v", owners[0])
	}
	if owners[1].Inode != 7 || !owners[1].Live {
		t.Fatalf("transplanted live ref = %+v", owners[1])
	}

	// Relocation state survives checkpoint + reopen + compaction.
	mustCheckpoint(t, e, 10)
	mustCompact(t, e)
	owners = mustQuery(t, e, 4040)
	if len(owners) != 2 {
		t.Fatalf("owners after compaction = %+v", owners)
	}
	if got := mustQuery(t, e, 40); len(got) != 0 {
		t.Fatalf("old block resurrected: %+v", got)
	}
}

func TestRelocateBlockInWS(t *testing.T) {
	// Relocating a block whose records are still only in the write store.
	env := newTestEnv(t, Options{})
	e := env.eng
	e.AddRef(ref(41, 6, 0, 0), 5)
	if err := e.RelocateBlock(41, 4141); err != nil {
		t.Fatal(err)
	}
	mustCheckpoint(t, e, 5)
	if got := mustQuery(t, e, 41); len(got) != 0 {
		t.Fatalf("old WS block still owned: %+v", got)
	}
	if got := mustQuery(t, e, 4141); len(got) != 1 {
		t.Fatalf("new block owners = %+v", got)
	}
}

func TestPartitionedEngine(t *testing.T) {
	env := newTestEnv(t, Options{Partitions: 4, PartitionSpan: 100})
	e := env.eng
	blocks := []uint64{5, 150, 250, 950}
	for i, b := range blocks {
		e.AddRef(ref(b, uint64(i+1), 0, 0), 3)
	}
	mustCheckpoint(t, e, 3)
	for i, b := range blocks {
		got := mustQuery(t, e, b)
		if len(got) != 1 || got[0].Inode != uint64(i+1) {
			t.Fatalf("block %d: %+v", b, got)
		}
	}
	mustCompact(t, e)
	for i, b := range blocks {
		got := mustQuery(t, e, b)
		if len(got) != 1 || got[0].Inode != uint64(i+1) {
			t.Fatalf("block %d after compaction: %+v", b, got)
		}
	}
	// Each partition has at most one From run.
	for p := 0; p < 4; p++ {
		if n := len(e.DB().Table(TableFrom).Runs(p)); n > 1 {
			t.Fatalf("partition %d has %d From runs", p, n)
		}
	}
}

func TestSelectivePartitionCompaction(t *testing.T) {
	env := newTestEnv(t, Options{Partitions: 2, PartitionSpan: 100})
	e := env.eng
	for cp := uint64(1); cp <= 5; cp++ {
		e.AddRef(ref(10+cp, 1, cp, 0), cp)  // partition 0
		e.AddRef(ref(110+cp, 2, cp, 0), cp) // partition 1
		mustCheckpoint(t, e, cp)
	}
	if err := e.compactWhole(0); err != nil {
		t.Fatal(err)
	}
	if n := len(e.DB().Table(TableFrom).Runs(0)); n != 1 {
		t.Fatalf("partition 0 has %d runs after compaction", n)
	}
	if n := len(e.DB().Table(TableFrom).Runs(1)); n != 5 {
		t.Fatalf("partition 1 has %d runs, want 5 (not compacted)", n)
	}
	for cp := uint64(1); cp <= 5; cp++ {
		if got := mustQuery(t, e, 110+cp); len(got) != 1 {
			t.Fatalf("uncompacted partition lost block %d", 110+cp)
		}
	}
}

func TestCheckpointIsDurableAcrossReopen(t *testing.T) {
	fs := storage.NewMemFS()
	cat := NewMemCatalog()
	eng, err := Open(Options{VFS: fs, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	eng.AddRef(ref(77, 3, 0, 0), 2)
	mustCheckpoint(t, eng, 2)

	eng2, err := Open(Options{VFS: fs, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustQuery(t, eng2, 77); len(got) != 1 {
		t.Fatalf("reopen lost data: %+v", got)
	}
}

func TestOpenValidatesOptions(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without VFS succeeded")
	}
	if _, err := Open(Options{VFS: storage.NewMemFS()}); err == nil {
		t.Fatal("Open without Catalog succeeded")
	}
}

func TestStatsCounters(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	e.AddRef(ref(1, 1, 0, 0), 1)
	e.RemoveRef(ref(2, 1, 1, 0), 1)
	mustCheckpoint(t, e, 1)
	mustQuery(t, e, 1)
	st := e.Stats()
	if st.RefsAdded != 1 || st.RefsRemoved != 1 || st.Checkpoints != 1 || st.Queries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RecordsFlushed != 2 {
		t.Fatalf("RecordsFlushed = %d", st.RecordsFlushed)
	}
}

func TestQueryRange(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	for b := uint64(10); b < 20; b += 2 {
		e.AddRef(ref(b, b, 0, 0), 1)
	}
	mustCheckpoint(t, e, 1)
	var visited []uint64
	err := e.QueryRange(10, 10, func(b uint64, owners []Owner) bool {
		visited = append(visited, b)
		// An even block has its one owner, an odd one a nil slice.
		if owned := b%2 == 0; (owners != nil) != owned || owned && len(owners) != 1 {
			t.Errorf("block %d: owners %+v", b, owners)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}; !slices.Equal(visited, want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}

	// One answer, one topology: blocks 1 and 2 each hold an interval [1, 3)
	// only snapshot 2 retains, and the visitor deletes that snapshot while
	// it holds block 1. Block 2 is answered as of the same topology.
	env = newTestEnv(t, Options{})
	e = env.eng
	for b := uint64(1); b <= 2; b++ {
		e.AddRef(ref(b, b, 0, 0), 1)
	}
	mustCheckpoint(t, e, 1)
	if err := env.cat.CreateSnapshot(0, 2); err != nil {
		t.Fatal(err)
	}
	mustCheckpoint(t, e, 2)
	for b := uint64(1); b <= 2; b++ {
		e.RemoveRef(ref(b, b, 0, 0), 3)
	}
	mustCheckpoint(t, e, 3)
	var owners []int
	err = e.QueryRange(1, 2, func(b uint64, o []Owner) bool {
		owners = append(owners, len(o))
		if b == 1 {
			if err := env.cat.DeleteSnapshot(0, 2); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(owners, []int{1, 1}) {
		t.Fatalf("owners per block %v across a snapshot deleted mid-range, want [1 1]", owners)
	}
	if got := mustQuery(t, e, 2); len(got) != 0 {
		t.Fatalf("block 2 after the snapshot went: %+v, want no owner", got)
	}
}

// TestQueryRangeRefusesWhatIsNoRange: a negative n, or a range that would
// wrap past the largest block number to block 0, is an error before any
// block is visited; n == 0 visits nothing, and a range may end at the
// largest block.
func TestQueryRangeRefusesWhatIsNoRange(t *testing.T) {
	env := newTestEnv(t, Options{})
	e := env.eng
	e.AddRef(ref(0, 1, 0, 0), 1)
	e.AddRef(ref(math.MaxUint64, 2, 0, 0), 1)
	mustCheckpoint(t, e, 1)
	visits := func(lo uint64, n int) ([]uint64, error) {
		var got []uint64
		err := e.QueryRange(lo, n, func(b uint64, _ []Owner) bool {
			got = append(got, b)
			return true
		})
		return got, err
	}
	for _, c := range []struct {
		lo uint64
		n  int
	}{{math.MaxUint64, 2}, {math.MaxUint64 - 1, 3}, {1<<63 + 2, math.MaxInt}, {5, -1}, {0, math.MinInt}} {
		if got, err := visits(c.lo, c.n); err == nil || len(got) > 0 {
			t.Errorf("QueryRange(%d, %d) visited %v, err %v; want an error and no visit", c.lo, c.n, got, err)
		}
	}
	if got, err := visits(7, 0); err != nil || len(got) > 0 {
		t.Errorf("QueryRange(7, 0) visited %v, err %v; want nothing", got, err)
	}
	if got, err := visits(math.MaxUint64-1, 2); err != nil || !slices.Equal(got, []uint64{math.MaxUint64 - 1, math.MaxUint64}) {
		t.Errorf("QueryRange(MaxUint64-1, 2) visited %v, err %v", got, err)
	}
	if st := e.Stats(); st.Queries != 2 {
		t.Errorf("Queries = %d, want 2: one per block visited", st.Queries)
	}
}

// BenchmarkQueryRangeClones answers a 512-block range whose every block has
// one owner on line 0, inherited by each of fanout clones of one snapshot:
// the per-block cost of inheritance expansion and masking, which consult
// the topology once per group and once per interval.
func BenchmarkQueryRangeClones(b *testing.B) {
	const blocks = 512
	for _, fanout := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			cat := NewMemCatalog()
			eng, err := Open(Options{VFS: storage.NewMemFS(), Catalog: cat})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { eng.Close() })
			for blk := range uint64(blocks) {
				eng.AddRef(ref(blk, blk, 0, 0), 1)
			}
			if err := cat.CreateSnapshot(0, 1); err != nil {
				b.Fatal(err)
			}
			if err := eng.Checkpoint(1); err != nil {
				b.Fatal(err)
			}
			for l := range uint64(fanout) {
				if err := cat.CreateClone(l+1, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
			want := fanout + 1
			visit := func(blk uint64, owners []Owner) bool {
				if len(owners) != want {
					b.Fatalf("block %d: %d owners, want %d", blk, len(owners), want)
				}
				return true
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := eng.QueryRange(0, blocks, visit); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
		})
	}
}
