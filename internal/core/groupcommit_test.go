// Sync-mode group commit at the engine level, in package core_test for the
// model (statemachine_test.go).
package core_test

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// openSyncOnOneProcessor opens a Sync-mode engine on a slow log device and
// pins the test to one P, where the gathering leader's yield runs the other
// updater directly and the batch counts do not depend on the host's cores.
func openSyncOnOneProcessor(t *testing.T) (*core.Engine, *storage.MemFS, *core.MemCatalog) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	// Log-segment fsyncs take as long as a device's, so that a share of a
	// flush is a usable gather bound.
	vfs := storage.NewMemFS()
	vfs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op == storage.OpSync && strings.HasPrefix(c.Name, "wal-") {
			time.Sleep(time.Millisecond)
		}
		return nil
	}})
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: vfs, Catalog: cat, Durability: wal.Sync, WriteShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng, vfs, cat
}

// TestSyncTwoUpdatersShareFlushes: two closed-loop updaters in Sync mode
// get two records into nearly every group commit — the API serialises each
// client, the log's gather batches across them — and what was acknowledged
// that way survives a crash.
func TestSyncTwoUpdatersShareFlushes(t *testing.T) {
	eng, vfs, cat := openSyncOnOneProcessor(t)
	const blocks = 64
	m := newModel()
	var wg sync.WaitGroup
	for _, stream := range hammerStreams(2, 150, blocks, 1) {
		for _, o := range stream {
			m.apply(o)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range stream {
				o.applyTo(eng)
			}
		}()
	}
	wg.Wait()
	st := eng.Stats()
	if st.WALAppends != 300 || 10*st.WALBatches > 6*st.WALAppends {
		t.Fatalf("%d appends in %d group commits (%d gathers, %d filled), want at most 0.6 commits per append",
			st.WALAppends, st.WALBatches, st.WALGathers, st.WALGathersFilled)
	}
	if err := eng.WALErr(); err != nil {
		t.Fatal(err)
	}

	vfs.Crash() // no Close: the log is the only copy
	eng2, err := core.Open(core.Options{VFS: vfs, Catalog: cat, Durability: wal.Sync, WriteShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if got := eng2.Stats().WALReplayed; got != st.WALAppends {
		t.Fatalf("replayed %d records, %d were acknowledged", got, st.WALAppends)
	}
	m.check(t, eng2, blocks)
}

// TestSyncRelocateAmidUpdatersIsNotHeldUp: RelocateBlock appends under the
// exclusive structural lock, so the updaters its flush leader knows to be in
// the loop cannot come — it gathers for them at most once, for at most the
// bound, and neither deadlocks nor loses the record.
func TestSyncRelocateAmidUpdatersIsNotHeldUp(t *testing.T) {
	eng, vfs, cat := openSyncOnOneProcessor(t)
	const oldBlock, newBlock = 9000, 9001 // outside the updaters' blocks
	eng.AddRef(core.Ref{Block: oldBlock, Inode: 7, Length: 1}, 1)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); !stop.Load(); i++ {
				eng.AddRef(core.Ref{Block: i % 64, Inode: uint64(w + 1), Offset: i, Length: 1}, 1)
			}
		}()
	}
	for eng.Stats().WALBatches < 20 {
		runtime.Gosched()
	}
	before := eng.Stats()
	relocated := make(chan error, 1)
	go func() { relocated <- eng.RelocateBlock(oldBlock, newBlock) }()
	select {
	case err := <-relocated:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RelocateBlock is still waiting for updaters its own lock keeps out")
	}
	after := eng.Stats()
	stop.Store(true)
	wg.Wait()
	// Its own gather, and the one an updater may have been leading when the
	// exclusive lock was requested and its peer parked behind it.
	expired := func(st core.Stats) uint64 { return st.WALGathers - st.WALGathersFilled }
	if n := expired(after) - expired(before); n > 2 {
		t.Fatalf("%d gathers ran into the bound around one RelocateBlock, want at most 2", n)
	}

	vfs.Crash()
	eng2, err := core.Open(core.Options{VFS: vfs, Catalog: cat, Durability: wal.Sync, WriteShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	for block, want := range map[uint64]int{oldBlock: 0, newBlock: 1} {
		owners, err := eng2.Query(block)
		if err != nil {
			t.Fatal(err)
		}
		if len(owners) != want {
			t.Fatalf("block %d has %d owners after the crash, want %d: %+v", block, len(owners), want, owners)
		}
	}
}
