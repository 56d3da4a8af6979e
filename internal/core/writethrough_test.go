package core_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// TestWriteThroughFailuresLeaveTheCache: work that does not commit leaves
// the page cache as it found it — the pages a checkpoint wrote through
// leave with its runs when its commit's sync fails, and a merge that
// finds its partition changed at install adds nothing either — and a
// checkpoint that does commit is then served to queries from memory. (A
// flush that fails at any run-file I/O is TestCheckpointFlushFailureAtEveryRunIO.)
func TestWriteThroughFailuresLeaveTheCache(t *testing.T) {
	t.Run("failed commit", func(t *testing.T) {
		fx := newMergeFixture(t, core.Options{WriteShards: 2})
		fx.epoch(1)
		for i := uint64(0); i < fixtureBlocks; i++ {
			fx.apply(refOp{ref: core.Ref{Block: i, Inode: 30, Offset: i, Length: 1}, cp: 2})
		}
		cached := fx.eng.CacheBytes()
		failCalls(fx.fs, storage.OpSync, "cp.")
		if err := fx.eng.Checkpoint(2); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("Checkpoint = %v, want the injected failure of its commit's sync", err)
		}
		if got := fx.eng.CacheBytes(); got != cached {
			t.Fatalf("%d bytes cached after the failed commit, %d before", got, cached)
		}
		fx.fs.SetFailurePlan(storage.FailurePlan{})
		if err := fx.eng.Checkpoint(2); err != nil {
			t.Fatal(err)
		}
		if got := fx.eng.CacheBytes(); got <= cached {
			t.Fatalf("%d bytes cached after the checkpoint, %d before: its pages were not written through", got, cached)
		}
		queried, _ := fx.eng.IOStats().SourceBytes(storage.SrcQuery)
		fx.verify()
		if read, _ := fx.eng.IOStats().SourceBytes(storage.SrcQuery); read != queried {
			t.Fatalf("queries read %d bytes of runs this process wrote", read-queried)
		}
	})

	t.Run("conflicted merge", func(t *testing.T) {
		fx := newMergeFixture(t, core.Options{})
		for cp := uint64(1); cp <= 4; cp++ {
			fx.epoch(cp)
		}
		// A relocation, which moves the deletion vector, and the checkpoint
		// that persists it land inside the first attempt, before its file
		// is created; the cache is measured after them, and again when the
		// second attempt creates its file — after the first one built its
		// runs, lost the race and removed them. The
		// block moved is odd, so no removal of epoch 5 names it.
		creates := 0
		var cached int64
		onRunCreate(fx.fs, func(name string) {
			if !strings.HasPrefix(name, mergeFile) {
				return
			}
			switch creates++; creates {
			case 1:
				if err := fx.eng.RelocateBlock(1, fixtureBlocks); err != nil {
					t.Error(err)
				}
				fx.m.relocate(1, fixtureBlocks)
				fx.epoch(5)
				cached = fx.eng.CacheBytes()
			case 2:
				if got := fx.eng.CacheBytes(); got != cached {
					t.Errorf("%d bytes cached after the conflicted attempt, %d before it", got, cached)
				}
			}
		})
		if err := fx.eng.Compact(); err != nil {
			t.Fatal(err)
		}
		fx.fs.SetFailurePlan(storage.FailurePlan{})
		if ms := fx.eng.MaintenanceStats(); creates < 2 || ms.Conflicts != 1 {
			t.Fatalf("%d merge files created, %d conflicts: want a conflict and a retry", creates, ms.Conflicts)
		}
		fx.verify()
	})
}
