package wal

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/storage"
)

func addRec(i int) Record {
	return Record{Op: OpAddRef, Block: uint64(i), Inode: uint64(i * 2), Offset: uint64(i % 7), CP: uint64(i/10 + 1), Length: 1}
}

func mustOpen(t testing.TB, vfs storage.VFS, d Durability) (*Log, Recovered) {
	t.Helper()
	l, rec, err := Open(vfs, Options{Durability: d})
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	vfs := storage.NewMemFS()
	l, rec := mustOpen(t, vfs, Sync)
	if rec.Found {
		t.Fatal("found segments in a fresh VFS")
	}
	want := []Record{
		addRec(1),
		{Op: OpRemoveRef, Block: 2, Inode: 4, CP: 1, Length: 1},
		{Op: OpRelocate, Block: 5, NewBlock: 9, CP: 2},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found || len(got.Records) != len(want) {
		t.Fatalf("recovered %d records (found=%v), want %d", len(got.Records), got.Found, len(want))
	}
	for i := range want {
		if got.Records[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got.Records[i], want[i])
		}
	}
}

// onSync returns a MemFS whose plan runs fn before every fsync: a sleep
// makes them take as long as a device's — long enough that appenders pile up
// behind a flush, and that a share of the flush time is a usable gather
// bound — and a channel operation holds a flush where a test wants it.
func onSync(fn func()) *storage.MemFS {
	fs := storage.NewMemFS()
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op == storage.OpSync {
			fn()
		}
		return nil
	}})
	return fs
}

// onProcessors runs the rest of the test on n Ps. The tests that count
// filled batches ask for one: there the gathering leader's yield hands the
// processor straight to the appenders it waits for, so whether they are back
// within the bound does not hang on how many cores the host really gives the
// process's threads — a leader yielding on one thread does nothing for an
// appender whose thread is waiting for a core.
func onProcessors(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestGroupCommitConcurrent: W closed-loop appenders get W records per
// fsync, not the W/2 of a leader that leaves while the appenders it just
// acknowledged are still on their way back; a lone appender is never made
// to wait for anybody. Judged on counts alone.
func TestGroupCommitConcurrent(t *testing.T) {
	onProcessors(t, 1)
	for _, writers := range []int{1, 2, 8, 32} {
		t.Run(fmt.Sprintf("W=%d", writers), func(t *testing.T) {
			const perWriter = 100
			vfs := onSync(func() { time.Sleep(4 * time.Millisecond) })
			l, _ := mustOpen(t, vfs, Sync)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						r := Record{Op: OpAddRef, Block: uint64(w)<<32 | uint64(i), Inode: uint64(w), Offset: uint64(i), CP: 1, Length: 1}
						if err := l.Append(r); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			st := l.Stats()
			if st.Appends != uint64(writers*perWriter) {
				t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
			}
			if writers == 1 {
				if st.Batches != st.Appends || st.Gathers != 0 {
					t.Fatalf("a lone appender made %d batches of %d appends and %d gathers, want a batch per append and no gather", st.Batches, st.Appends, st.Gathers)
				}
			} else if 10*st.Appends < 9*uint64(writers)*st.Batches {
				t.Fatalf("%d appenders: %d appends in %d batches (%d gathers, %d filled), want at least %.1f records per batch",
					writers, st.Appends, st.Batches, st.Gathers, st.GathersFilled, 0.9*float64(writers))
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(vfs)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[uint64]bool, writers*perWriter)
			for _, r := range rec.Records {
				seen[r.Block] = true
			}
			if len(seen) != writers*perWriter {
				t.Fatalf("recovered %d distinct records, want %d", len(seen), writers*perWriter)
			}
		})
	}
}

// TestBufferedConcurrentAppendRotate: Buffered appenders keep buffering
// while a leader writes, rotates (fsync and segment creation with the
// mutex released) and while Retire removes segments; every record is
// recovered, each writer's in its own order.
func TestBufferedConcurrentAppendRotate(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _, err := Open(vfs, Options{Durability: Buffered, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(addRec(0)); err != nil {
		t.Fatal(err)
	}
	cut, err := l.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.Append(Record{Op: OpAddRef, Block: uint64(w), Inode: uint64(i), CP: 2, Length: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	if err := l.Retire(cut); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if l.SegmentCount() < 3 {
		t.Fatalf("segments = %d, want rotation", l.SegmentCount())
	}
	if st := l.Stats(); st.Batches*10 > st.Appends {
		t.Fatalf("%d appends took %d writes: not coalesced", st.Appends, st.Batches)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), writers*perWriter)
	}
	next := make([]uint64, writers)
	for _, r := range rec.Records {
		if r.Inode != next[r.Block] {
			t.Fatalf("writer %d: record %d recovered where %d was due", r.Block, r.Inode, next[r.Block])
		}
		next[r.Block]++
	}
}

// TestBufferedAppendsDoNotWaitForRotationSync: the fsync of a full
// segment is the leader's business alone; appenders keep buffering behind
// it instead of queueing on the log's mutex for its whole duration.
func TestBufferedAppendsDoNotWaitForRotationSync(t *testing.T) {
	// Every segment fsync announces itself and waits for release.
	entered, release := make(chan struct{}), make(chan struct{})
	vfs := onSync(func() {
		entered <- struct{}{}
		<-release
	})
	l, _, err := Open(vfs, Options{Durability: Buffered, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	leaderDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := l.Append(addRec(i)); err != nil || l.SegmentCount() > 1 {
				leaderDone <- err
				return
			}
		}
	}()
	<-entered // the leader is inside the outgoing segment's fsync

	appended := make(chan error, 1)
	go func() { appended <- l.Append(addRec(1 << 20)) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Append blocked behind the rotation's fsync")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	go func() { <-entered }() // Close syncs the active segment
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if last := rec.Records[len(rec.Records)-1]; last != addRec(1<<20) {
		t.Fatalf("the record appended during the rotation is not the log's last: %+v", last)
	}
}

func TestRotation(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _, err := Open(vfs, Options{Durability: Sync, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 80 // 13-byte one-record batches: several rotations at 256-byte segments
	for i := 0; i < n; i++ {
		if err := l.Append(addRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("segments = %d, want rotation", l.SegmentCount())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		if r.Block != uint64(i) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
}

func TestCrashDurabilityByMode(t *testing.T) {
	t.Run("sync survives crash", func(t *testing.T) {
		vfs := storage.NewMemFS()
		l, _ := mustOpen(t, vfs, Sync)
		for i := 0; i < 10; i++ {
			if err := l.Append(addRec(i)); err != nil {
				t.Fatal(err)
			}
		}
		vfs.Crash() // no Close
		rec, err := Recover(vfs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Records) != 10 {
			t.Fatalf("recovered %d records, want 10", len(rec.Records))
		}
	})
	t.Run("buffered loses crash, keeps close", func(t *testing.T) {
		vfs := storage.NewMemFS()
		l, _ := mustOpen(t, vfs, Buffered)
		for i := 0; i < 10; i++ {
			if err := l.Append(addRec(i)); err != nil {
				t.Fatal(err)
			}
		}
		vfs.Crash()
		rec, err := Recover(vfs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Records) != 0 {
			t.Fatalf("unsynced buffered records survived a crash: %d", len(rec.Records))
		}

		vfs2 := storage.NewMemFS()
		l2, _ := mustOpen(t, vfs2, Buffered)
		for i := 0; i < 10; i++ {
			if err := l2.Append(addRec(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l2.Close(); err != nil { // Close syncs
			t.Fatal(err)
		}
		vfs2.Crash()
		rec2, err := Recover(vfs2)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec2.Records) != 10 {
			t.Fatalf("cleanly closed buffered log lost records: %d of 10", len(rec2.Records))
		}
	})
}

// TestTornTailIsTolerated: a final segment whose last frame a crash cut
// short, or whose tail is zeros, recovers every record before it.
func TestTornTailIsTolerated(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	const n = 5
	for i := 0; i < n; i++ {
		if err := l.Append(addRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(vfs)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	name := segmentName(segs[0])
	f, err := vfs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	f.Close()

	// Rebuild the log with its final record cut mid-frame — one byte of it
	// left, part of its header, its header alone, all but its last byte:
	// the expected on-disk states after a crash during the last
	// group-commit write.
	var last int // the final frame's length
	if _, err := walkFrames(buf[segHeaderSize:], segVersion, func(off int, _ Record) bool {
		last = len(buf) - segHeaderSize - off
		return false
	}); err != nil {
		t.Fatal(err)
	}
	header := frameHeaderLen(segVersion, last)
	for _, cut := range []int{last - 1, last - header + 2, last - header, 1} {
		tornVFS := storage.NewMemFS()
		tf, err := tornVFS.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tf.WriteAt(buf[:len(buf)-cut], 0); err != nil {
			t.Fatal(err)
		}
		if err := tf.Sync(); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(tornVFS)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(rec.Records) != n-1 {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Records), n-1)
		}
	}

	// A zero-filled tail — the file grew, its bytes never came — is a tear
	// as well, a length of 0 being refused: every record replays, Open
	// seals the tail, and the log goes on past it.
	zeroVFS := storage.NewMemFS()
	plantSegment(t, zeroVFS, segs[0], append(slices.Clone(buf), make([]byte, storage.PageSize)...))
	l, rec, err := Open(zeroVFS, Options{Durability: Sync})
	if err != nil || len(rec.Records) != n {
		t.Fatalf("zero-filled tail: recovered %d records (%v), want %d", len(rec.Records), err, n)
	}
	appendAll(t, l, addRec(n))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, err := Recover(zeroVFS); err != nil || len(rec.Records) != n+1 {
		t.Fatalf("zero-filled tail, sealed: recovered %d records (%v), want %d", len(rec.Records), err, n+1)
	}
}

// TestTornTailSealedAtOpen is the regression test for a recovery
// livelock: a torn tail is tolerated while its segment is final, but
// Open appends into a NEW segment — so without sealing, the next
// recovery would find the tear in a non-final segment and reject the
// whole log as corrupt forever.
func TestTornTailSealedAtOpen(t *testing.T) {
	src := storage.NewMemFS()
	l, _ := mustOpen(t, src, Sync)
	const n = 4
	for i := 0; i <= n; i++ { // n survivors + one record to tear
		if err := l.Append(addRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(src)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	name := segmentName(segs[0])
	f, err := src.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	whole := make([]byte, size)
	if _, err := f.ReadAt(whole, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	f.Close()

	// Plant the log with its final record cut mid-frame, as a crash
	// during the last group-commit write leaves it.
	vfs := storage.NewMemFS()
	tf, err := vfs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.WriteAt(whole[:len(whole)-5], 0); err != nil {
		t.Fatal(err)
	}
	if err := tf.Sync(); err != nil {
		t.Fatal(err)
	}

	// First reopen tolerates the tear and seals it.
	l2, rec := mustOpen(t, vfs, Sync)
	if len(rec.Records) != n {
		t.Fatalf("first recovery: %d records, want %d", len(rec.Records), n)
	}
	if err := l2.Append(addRec(50)); err != nil {
		t.Fatal(err)
	}
	vfs.Crash()

	// Second recovery: the torn segment is no longer final; only the seal
	// keeps it readable.
	l3, rec2 := mustOpen(t, vfs, Sync)
	if len(rec2.Records) != n+1 {
		t.Fatalf("second recovery: %d records, want %d", len(rec2.Records), n+1)
	}
	if rec2.Records[n].Block != 50 {
		t.Fatalf("second recovery order: %+v", rec2.Records)
	}
	// And a clean close (no new appends) must also stay recoverable.
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	rec3, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Records) != n+1 {
		t.Fatalf("third recovery: %d records, want %d", len(rec3.Records), n+1)
	}
}

// buildSegment writes a synced segment file from raw parts, each record a
// batch of its own, as a lone Sync appender leaves them: the elision state
// carried from each to the next.
func buildSegment(t *testing.T, vfs storage.VFS, index uint64, recs []Record, tornBytes []byte) {
	t.Helper()
	buf := encodeSegHeader(index)
	var st batchState
	for _, r := range recs {
		buf = appendFrame(buf, segVersion, &st, r)
	}
	plantSegment(t, vfs, index, append(buf, tornBytes...))
}

func TestCorruptMiddleSegmentIsAnError(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _, err := Open(vfs, Options{Durability: Sync, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := l.Append(addRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, have %d", len(segs))
	}
	f, err := vfs.Open(segmentName(segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, segHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Recover(vfs); err == nil {
		t.Fatal("corrupt non-final segment recovered without error")
	}
}

func TestOpenReplaysAcrossReopen(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	for i := 0; i < 3; i++ {
		if err := l.Append(addRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	vfs.Crash()

	// Reopen: recovery surfaces the three records, new appends land in a
	// fresh segment, and both generations survive until a Cut + Retire.
	l2, rec := mustOpen(t, vfs, Sync)
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Records))
	}
	if err := l2.Append(addRec(7)); err != nil {
		t.Fatal(err)
	}
	vfs.Crash()
	rec2, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) != 4 {
		t.Fatalf("recovered %d records after second crash, want 4", len(rec2.Records))
	}
}

// BenchmarkSyncAppendSweep is the closed-loop client sweep behind the
// package doc's group-commit table: W appenders on a real directory, each
// sending its next record when the last is acknowledged. ns/op is wall time
// per append; records/fsync is the batch fill.
func BenchmarkSyncAppendSweep(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8, 32} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			vfs, err := storage.NewDirFS(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			l, _ := mustOpen(b, vfs, Sync)
			defer l.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < w; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						if err := l.Append(addRec(int(i))); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st := l.Stats()
			b.ReportMetric(float64(st.Appends)/float64(st.Batches), "records/fsync")
			b.ReportMetric(float64(st.Gathers), "gathers")
		})
	}
}
