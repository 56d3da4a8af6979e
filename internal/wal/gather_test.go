package wal

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/storage"
)

// seqNow is how many records l has accepted so far.
func seqNow(l *Log) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// awaitLog yields until cond holds of l.
func awaitLog(l *Log, cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// TestGatherPeerNeverReturns: the leader that gathers for an appender that
// has left acknowledges anyway, the expiry engages the back-off, and the
// survivor is not asked to wait again.
func TestGatherPeerNeverReturns(t *testing.T) {
	onProcessors(t, 1)
	vfs := onSync(func() { time.Sleep(2 * time.Millisecond) })
	l, _ := mustOpen(t, vfs, Sync)
	// Two closed-loop appenders pair up (the first batch holds one record,
	// every later one the other's record and the first's next), so when one
	// leaves the other's next record leads a gather nobody joins.
	const together, alone = 20, 100
	var atDeparture Stats
	var wg sync.WaitGroup
	for w, n := range []int{together, together + alone} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := l.Append(Record{Op: OpAddRef, Block: uint64(w), Inode: uint64(i), CP: 1, Length: 1}); err != nil {
					t.Error(err)
					return
				}
			}
			if n == together {
				atDeparture = l.Stats()
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Gathers == st.GathersFilled {
		t.Fatalf("all %d gathers filled, though one waited for an appender that had left", st.Gathers)
	}
	if l.gatherBackoff == 0 {
		t.Fatal("the expired gather did not engage the back-off")
	}
	gathers, flushes := st.Gathers-atDeparture.Gathers, st.Batches-atDeparture.Batches
	if flushes < alone/2 || gathers > 1+flushes/gatherMaxSkip {
		t.Fatalf("after its peer left the survivor gathered %d times in %d flushes, want at most once and then once per %d", gathers, flushes, gatherMaxSkip)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGatherBacksOffFromThinkingPeers: two appenders whose think time
// exceeds any bound — each sends its next record while the other's is being
// flushed and not before, so every flush leaves two in the loop and nobody
// ever comes back in time — make every gather expire, and in steady state
// the log tries one flush in gatherMaxSkip+1. Judged on counts alone.
func TestGatherBacksOffFromThinkingPeers(t *testing.T) {
	const warmup, steady = 4 * gatherMaxSkip, 40 * (gatherMaxSkip + 1)
	var l *Log
	var next atomic.Int64       // records sent so far
	turn := make(chan struct{}) // a flush in progress hands the other appender its turn
	vfs := onSync(func() {
		if next.Load() < warmup+steady {
			before := seqNow(l)
			turn <- struct{}{}
			awaitLog(l, func() bool { return seqNow(l) > before })
		}
	})
	l, _ = mustOpen(t, vfs, Sync)
	var atSteady Stats
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range turn {
				i := next.Add(1)
				if i == warmup {
					atSteady = l.Stats()
				}
				if err := l.Append(addRec(int(i))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	turn <- struct{}{}
	awaitLog(l, func() bool { return l.Stats().Batches == warmup+steady })
	close(turn)
	wg.Wait()
	st := l.Stats()
	if st.GathersFilled != 0 {
		t.Fatalf("%d gathers filled, though no appender comes back before the flush it waits for", st.GathersFilled)
	}
	gathers, flushes := st.Gathers-atSteady.Gathers, st.Batches-atSteady.Batches
	if flushes < steady || gathers == 0 || gathers*gatherMaxSkip > flushes {
		t.Fatalf("steady state: %d gathers in %d flushes, want one per %d", gathers, flushes, gatherMaxSkip+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGatherWaitedOutByCutRetireClose: the operations that wait for a flush
// in flight wait for a gather the same way — the slot is held from the first
// yield to the end of the write — and the record the leader is holding it
// for is neither lost nor misplaced. On one processor too, where the leader's
// yield is the only way anybody else runs.
func TestGatherWaitedOutByCutRetireClose(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		for _, op := range []string{"cut", "retire", "close"} {
			t.Run(fmt.Sprintf("%s/procs=%d", op, procs), func(t *testing.T) {
				onProcessors(t, procs)
				vfs := storage.NewMemFS()
				l, _ := mustOpen(t, vfs, Sync)
				if err := l.Append(addRec(0)); err != nil {
					t.Fatal(err)
				}
				cut0, err := l.Cut(1)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Append(addRec(1)); err != nil {
					t.Fatal(err)
				}
				// What a flush that acknowledged two closed-loop appenders on a
				// slow device leaves behind: the next leader waits out the whole
				// ceiling for a second record that never comes.
				l.mu.Lock()
				l.gatherTarget, l.flushTime = 2, gatherShare*gatherCeiling
				l.mu.Unlock()
				appended := make(chan error, 1)
				go func() { appended <- l.Append(addRec(2)) }()
				awaitLog(l, func() bool { return l.Stats().Gathers == 1 })

				want := []Record{addRec(0), addRec(1), addRec(2)}
				switch op {
				case "cut":
					// A checkpoint syncs its mark before it commits, as
					// the engine's flush phase does.
					if _, err = l.Cut(2); err == nil {
						err = l.SyncCut()
					}
				case "retire":
					err = l.Retire(cut0)
					want = want[1:]
				case "close":
					err = l.Close()
				}
				if err != nil {
					t.Fatalf("%s during a gather: %v", op, err)
				}
				if err := <-appended; err != nil {
					t.Fatalf("the gathering leader's own append: %v", err)
				}
				if st := l.Stats(); st.Gathers != 1 || st.GathersFilled != 0 {
					t.Fatalf("gathers = %d, filled = %d, want the one that expired", st.Gathers, st.GathersFilled)
				}
				if op != "close" {
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
				}
				vfs.Crash()
				rec, err := Recover(vfs)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(rec.Records, want) {
					t.Fatalf("recovered %+v, want %+v", rec.Records, want)
				}
				// The record went out ahead of the cut that waited for it.
				if op == "cut" && (len(rec.Cuts) != 2 || rec.Cuts[1] != CutMark{Index: 3, CP: 2}) {
					t.Fatalf("cuts = %+v, want the second after all three records", rec.Cuts)
				}
			})
		}
	}
}

// TestGatheredFlushFailureReportsToWholeBatch: a flush that fails after its
// leader gathered reports to every record it carried, and Cut clears the
// failure exactly as it does one without a gather.
func TestGatheredFlushFailureReportsToWholeBatch(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	vfs := onSync(func() {
		if held.CompareAndSwap(false, true) { // the first flush only
			entered <- struct{}{}
			<-release
		}
	})
	l, _ := mustOpen(t, vfs, Sync)
	acks := make([]chan error, 3)
	appendNext := func(i int) {
		acks[i] = make(chan error, 1)
		go func() { acks[i] <- l.Append(addRec(i)) }()
		awaitLog(l, func() bool { return seqNow(l) == uint64(i+1) })
	}
	// The first appender's flush is held in its fsync while two more queue
	// behind it: it leaves three in the loop, so the next leader gathers for
	// the one that does not come back, and then its write fails.
	appendNext(0)
	<-entered
	appendNext(1)
	appendNext(2)
	vfs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: vfs.Stats().PageWrites})
	close(release)
	if err := <-acks[0]; err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if err := <-acks[i]; !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("appender %d of the failed batch got %v, want the injected failure", i, err)
		}
	}
	if st := l.Stats(); st.Gathers != 1 || st.GathersFilled != 0 || st.Batches != 1 {
		t.Fatalf("stats = %+v, want one completed flush and one gather that expired", st)
	}
	if err := l.Append(addRec(3)); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("append to the failed log got %v, want the sticky failure", err)
	}

	vfs.SetFailurePlan(storage.FailurePlan{})
	if _, err := l.Cut(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("sticky error survived the Cut: %v", err)
	}
	if err := l.Append(addRec(4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Record{addRec(0), addRec(4)}; !slices.Equal(rec.Records, want) {
		t.Fatalf("recovered %+v, want %+v", rec.Records, want)
	}
	if len(rec.Cuts) != 1 || rec.Cuts[0] != (CutMark{Index: 1, CP: 1}) {
		t.Fatalf("cuts = %+v", rec.Cuts)
	}
}
