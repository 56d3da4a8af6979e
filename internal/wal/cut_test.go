package wal

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// TestCutRetireKeepsFlushConcurrentAppends is the checkpoint truncation
// contract: records appended after a Cut (updates racing a checkpoint
// flush) survive the Retire that deletes the segments the checkpoint
// covered — here several, the log having rotated on the way.
func TestCutRetireKeepsFlushConcurrentAppends(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _, err := Open(vfs, Options{Durability: Sync, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Two rotations' worth of appends.
	for i := 0; l.SegmentCount() < 3; i++ {
		if i == 200 {
			t.Fatalf("segments after %d appends = %d, want rotation", i, l.SegmentCount())
		}
		if err := l.Append(addRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := l.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	// "During the flush": appends for the next consistency point.
	during := Record{Op: OpAddRef, Block: 77, Inode: 9, CP: 2, Length: 1}
	if err := l.Append(during); err != nil {
		t.Fatal(err)
	}
	// "Install committed": retire everything the cut superseded.
	if err := l.Retire(cut); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || l.SegmentCount() != 1 {
		t.Fatalf("after Retire %d segment files, %d tracked; want 1 and 1", len(segs), l.SegmentCount())
	}
	if err := l.Append(addRec(50)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.MarkCP != 0 {
		t.Fatalf("MarkCP = %d from a log holding only a cut mark", rec.MarkCP)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2 (the post-cut appends): %+v", len(rec.Records), rec.Records)
	}
	if rec.Records[0] != during || rec.Records[1] != addRec(50) {
		t.Fatalf("wrong records survived: %+v", rec.Records)
	}
}

// TestCrashBetweenCutAndRetire verifies that a crash while the checkpoint
// flush is still running loses nothing: the cut mark does not discard the
// records before it (they are not yet durable in the read store), unlike
// a checkpoint mark.
func TestCrashBetweenCutAndRetire(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	pre := []Record{addRec(1), addRec(2)}
	for _, r := range pre {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Cut(1); err != nil {
		t.Fatal(err)
	}
	during := Record{Op: OpRemoveRef, Block: 5, Inode: 1, CP: 2, Length: 1}
	if err := l.Append(during); err != nil {
		t.Fatal(err)
	}
	vfs.Crash() // flush never commits, Retire never runs

	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record(nil), pre...), during)
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d: %+v", len(rec.Records), len(want), rec.Records)
	}
	for i := range want {
		if rec.Records[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, rec.Records[i], want[i])
		}
	}
	if rec.MarkCP != 0 {
		t.Fatalf("cut mark set MarkCP=%d; it must not promise durability", rec.MarkCP)
	}
}

// TestCutClearsFlushErrorAndPending: a flush failure blocks appends until
// the next checkpoint's Cut rotates to a fresh segment and resets the
// sticky state.
func TestCutClearsFlushErrorAndPending(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	if err := l.Append(addRec(1)); err != nil {
		t.Fatal(err)
	}
	vfs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: vfs.Stats().PageWrites})
	if err := l.Append(addRec(2)); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("append during failure plan: %v", err)
	}
	vfs.SetFailurePlan(storage.FailurePlan{})
	if err := l.Append(addRec(3)); err == nil {
		t.Fatal("sticky error did not gate appends once the device recovered")
	}
	if l.Err() == nil {
		t.Fatal("no sticky error")
	}
	cut, err := l.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("sticky error survived the Cut: %v", err)
	}
	if err := l.Append(addRec(4)); err != nil {
		t.Fatalf("append after Cut reset: %v", err)
	}
	if err := l.Retire(cut); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0] != addRec(4) {
		t.Fatalf("recovered %+v, want just the post-cut record", rec.Records)
	}
}

// TestStatsBytesCountWhatTheDeviceTook: a flush the device cuts short counts
// the prefix it applied and no more, so Stats.Bytes keeps matching the
// device's own byte count (less segment headers) across a failure.
func TestStatsBytesCountWhatTheDeviceTook(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Buffered)
	reconcile := func(when string) {
		t.Helper()
		st := l.Stats()
		if device := vfs.Stats().BytesWritten - int64(st.Segments)*segHeaderSize; st.Bytes != device {
			t.Fatalf("%s: Stats.Bytes = %d, the device took %d bytes of log content", when, st.Bytes, device)
		}
	}
	for i := 0; l.BufferedBytes() < 3*storage.PageSize; i++ {
		if err := l.Append(addRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	pending := int64(l.BufferedBytes())
	// The flush spans four pages; the device takes the first and fails.
	vfs.SetFailurePlan(storage.FailurePlan{FailAfterPageWrites: vfs.Stats().PageWrites + 1, TornWrite: true})
	if _, err := l.Cut(1); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("cut over a failing flush: %v", err)
	}
	if got := l.Stats().Bytes; got <= 0 || got >= pending {
		t.Fatalf("Stats.Bytes = %d after a torn flush of %d record bytes, want a proper prefix", got, pending)
	}
	reconcile("after the torn flush")
	vfs.SetFailurePlan(storage.FailurePlan{})
	if _, err := l.Cut(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(addRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reconcile("after recovery by Cut")
}

// TestRetireFailureKeepsSegmentsTracked arms a remove failure... MemFS
// Remove only fails for missing files, so instead verify the cut token
// contract directly: retiring with a stale token after a second Cut still
// removes exactly the right segments.
func TestSecondCutCoversUnretiredSegments(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Buffered)
	if err := l.Append(addRec(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Cut(1); err != nil {
		t.Fatal(err) // checkpoint 1 fails: its Retire never happens
	}
	if err := l.Append(addRec(2)); err != nil {
		t.Fatal(err)
	}
	cut2, err := l.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(addRec(3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(cut2); err != nil {
		t.Fatal(err)
	}
	if got := l.SegmentCount(); got != 1 {
		t.Fatalf("SegmentCount = %d after covering retire, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0] != addRec(3) {
		t.Fatalf("recovered %+v, want just the post-second-cut record", rec.Records)
	}
}

// TestResurrectedTornSegmentToleratedBeforeCutMark: a segment torn by a
// flush failure and retired may be resurrected by a crash that beat its
// removal; recovery must tolerate the tear because the next segment opens
// with a cut mark, and must keep the torn segment's intact prefix.
func TestResurrectedTornSegmentToleratedBeforeCutMark(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	if err := l.Append(addRec(1)); err != nil {
		t.Fatal(err)
	}
	// Tear the active segment with a torn, durable write.
	vfs.SetFailurePlan(storage.FailurePlan{
		FailAfterPageWrites: vfs.Stats().PageWrites,
		TornWrite:           true,
		TornWriteDurable:    true,
	})
	if err := l.Append(addRec(2)); err == nil {
		t.Fatal("torn append reported success")
	}
	vfs.SetFailurePlan(storage.FailurePlan{})
	if _, err := l.Cut(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(addRec(3)); err != nil {
		t.Fatal(err)
	}
	vfs.Crash() // Retire never ran: the torn segment survives mid-log

	rec, err := Recover(vfs)
	if err != nil {
		t.Fatalf("recovery rejected a torn segment before a cut mark: %v", err)
	}
	if len(rec.Records) != 2 || rec.Records[0] != addRec(1) || rec.Records[1] != addRec(3) {
		t.Fatalf("recovered %+v, want the pre-tear and post-cut records", rec.Records)
	}

	// A checkpoint mark heading the successor earns the same tolerance.
	// Nothing writes one any more, but the format still defines it (the
	// version-3 golden tail opens with one), and it still drops everything
	// logged before it.
	frame := appendBatch(nil, addRec(2))
	torn := frame[:len(frame)-1]
	vfs1 := storage.NewMemFS()
	buildSegment(t, vfs1, 1, []Record{addRec(1), addRec(2)}, torn)
	buildSegment(t, vfs1, 2, []Record{{Op: OpCheckpoint, CP: 5}, addRec(7)}, nil)
	rec, err = Recover(vfs1)
	if err != nil {
		t.Fatalf("recovery rejected a torn segment before a checkpoint mark: %v", err)
	}
	if rec.MarkCP != 5 || len(rec.Cuts) != 0 || len(rec.Records) != 1 || rec.Records[0] != addRec(7) {
		t.Fatalf("recovered %+v, want MarkCP 5 and just the post-mark record", rec)
	}

	// The same tear before a successor that does NOT open with a mark (a
	// rotation successor) is genuine mid-log corruption.
	vfs2 := storage.NewMemFS()
	buildSegment(t, vfs2, 1, []Record{addRec(1)}, torn)
	buildSegment(t, vfs2, 2, []Record{addRec(7)}, nil)
	if _, err := Recover(vfs2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn mid-log segment without a following mark: err = %v, want ErrCorrupt", err)
	}
}

// segmentSizes maps every segment file in vfs to its size.
func segmentSizes(t *testing.T, vfs storage.VFS) map[uint64]int64 {
	t.Helper()
	segs, err := listSegments(vfs)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[uint64]int64{}
	for _, idx := range segs {
		f, err := vfs.Open(segmentName(idx))
		if err != nil {
			t.Fatal(err)
		}
		if sizes[idx], err = f.Size(); err != nil {
			t.Fatal(err)
		}
	}
	return sizes
}

// TestCrashAfterSegmentMadeAhead: the power fails after PrepareCut made the
// next segment and before the Cut opened it. On a file system whose
// directory sync made the empty file durable (DirFS; the test syncs it on
// MemFS, which keeps only synced files) the newest segment is empty; either
// way Open recovers every acknowledged record, takes the empty segment for
// a torn creation rather than corruption, and the next Cut works.
func TestCrashAfterSegmentMadeAhead(t *testing.T) {
	for _, durableEntry := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable-entry=%v", durableEntry), func(t *testing.T) {
			vfs := storage.NewMemFS()
			l, _ := mustOpen(t, vfs, Sync)
			acked := []Record{addRec(1), addRec(2), addRec(3)}
			appendAll(t, l, acked...)
			if err := l.PrepareCut(); err != nil {
				t.Fatal(err)
			}
			if sizes := segmentSizes(t, vfs); len(sizes) != 2 || sizes[2] != 0 {
				t.Fatalf("segments after PrepareCut = %v, want the active one and an empty second", sizes)
			}
			if durableEntry {
				f, err := vfs.Open(segmentName(2))
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			vfs.Crash()

			l, rec, err := Open(vfs, Options{Durability: Sync})
			if err != nil {
				t.Fatalf("reopen after a crash with a segment made ahead: %v", err)
			}
			if !slices.Equal(rec.Records, acked) || len(rec.Cuts) != 0 {
				t.Fatalf("recovered %+v, cuts %+v; want the three acknowledged records", rec.Records, rec.Cuts)
			}
			if err := l.PrepareCut(); err != nil {
				t.Fatal(err)
			}
			cut, err := l.Cut(1)
			if err != nil {
				t.Fatalf("cut after recovery: %v", err)
			}
			after := addRec(4)
			appendAll(t, l, after)
			if err := l.SyncCut(); err != nil {
				t.Fatal(err)
			}
			if err := l.Retire(cut); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			vfs.Crash()
			rec, err = Recover(vfs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rec.Records, []Record{after}) || len(rec.Cuts) != 1 || rec.Cuts[0] != (CutMark{Index: 0, CP: 1}) {
				t.Fatalf("after the retired cut: records %+v, cuts %+v; want the post-cut record behind one mark", rec.Records, rec.Cuts)
			}
		})
	}
}

// TestRotationOpensThePreparedSegment: with segments so short that the log
// rotates between PrepareCut and Cut, the rotation opens the prepared
// segment instead of creating the next index, the Cut creates its own past
// it without colliding, and recovery reads every record in append order,
// the mark where the Cut put it.
func TestRotationOpensThePreparedSegment(t *testing.T) {
	for _, d := range []Durability{Buffered, Sync} {
		t.Run(d.String(), func(t *testing.T) {
			vfs := storage.NewMemFS()
			l, _, err := Open(vfs, Options{Durability: d, SegmentBytes: 64})
			if err != nil {
				t.Fatal(err)
			}
			var want []Record
			appendNext := func() {
				r := addRec(len(want))
				want = append(want, r)
				appendAll(t, l, r)
			}
			for l.SegmentCount() < 2 {
				appendNext()
			}
			if err := l.PrepareCut(); err != nil {
				t.Fatal(err)
			}
			prepared := l.preparedIndex
			created := vfs.Stats().FilesCreated
			for l.SegmentCount() < 3 {
				appendNext()
			}
			if got := vfs.Stats().FilesCreated; got != created {
				t.Fatalf("the rotation created %d files, want the prepared segment opened", got-created)
			}
			if got := l.names[len(l.names)-1]; got != segmentName(prepared) {
				t.Fatalf("active segment %s after the rotation, want the prepared %s", got, segmentName(prepared))
			}
			cutAt := len(want)
			if _, err := l.Cut(1); err != nil {
				t.Fatalf("cut after its segment went to a rotation: %v", err)
			}
			if got := l.names[len(l.names)-1]; got != segmentName(prepared+1) {
				t.Fatalf("the cut opened %s, want %s", got, segmentName(prepared+1))
			}
			appendNext()
			if err := l.SyncCut(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			vfs.Crash()
			rec, err := Recover(vfs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rec.Records, want) {
				t.Fatalf("recovered %+v, want %+v", rec.Records, want)
			}
			if len(rec.Cuts) != 1 || rec.Cuts[0] != (CutMark{Index: cutAt, CP: 1}) {
				t.Fatalf("cuts = %+v, want one after record %d", rec.Cuts, cutAt)
			}
		})
	}
}

// TestSegmentEntrySyncedBeforeItsFirstWrite: every segment the log creates
// — at Open, by a rotation, ahead of a cut by PrepareCut, and by a cut whose
// prepared segment a rotation took — has its directory entry synced before
// the segment's first write, so the entry is durable before any record in
// it is acknowledged.
func TestSegmentEntrySyncedBeforeItsFirstWrite(t *testing.T) {
	for _, d := range []Durability{Buffered, Sync} {
		t.Run(d.String(), func(t *testing.T) {
			vfs := storage.NewMemFS()
			var mu sync.Mutex
			var calls []storage.Call
			phase := "Open"
			createdBy := map[string]string{}
			vfs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
				mu.Lock()
				defer mu.Unlock()
				calls = append(calls, c)
				if c.Op == storage.OpCreate {
					createdBy[c.Name] = phase
				}
				return nil
			}})
			in := func(p string) {
				mu.Lock()
				defer mu.Unlock()
				phase = p
			}
			l, _, err := Open(vfs, Options{Durability: d, SegmentBytes: 64})
			if err != nil {
				t.Fatal(err)
			}
			appended := 0
			appendUntil := func(segments int) {
				for l.SegmentCount() < segments {
					appendAll(t, l, addRec(appended))
					appended++
				}
			}
			in("rotation")
			appendUntil(2)
			in("PrepareCut")
			if err := l.PrepareCut(); err != nil {
				t.Fatal(err)
			}
			in("rotation into the prepared segment")
			appendUntil(3)
			in("Cut")
			if _, err := l.Cut(1); err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, addRec(appended))
			if err := l.SyncCut(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			mu.Lock()
			defer mu.Unlock()
			seen := map[string]int{}
			for i, c := range calls {
				if c.Op != storage.OpCreate {
					continue
				}
				seen[createdBy[c.Name]]++
				synced := false
				for _, later := range calls[i+1:] {
					if later.Op == storage.OpSyncDir {
						synced = true
					}
					if later.Op == storage.OpWrite && later.Name == c.Name {
						break
					}
				}
				if !synced {
					t.Errorf("%s, created by %s, had no SyncDir before its first write", c.Name, createdBy[c.Name])
				}
			}
			if seen["Open"] != 1 || seen["rotation"] == 0 || seen["PrepareCut"] != 1 || seen["Cut"] != 1 {
				t.Fatalf("segments created per call: %v, want one at Open, PrepareCut and Cut and some by rotation", seen)
			}
		})
	}
}

// TestCloseRemovesUnusedPreparedSegment: a segment made ahead that no Cut
// or rotation opened leaves no file behind a clean Close.
func TestCloseRemovesUnusedPreparedSegment(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Buffered)
	appendAll(t, l, addRec(1))
	if err := l.PrepareCut(); err != nil {
		t.Fatal(err)
	}
	if err := l.PrepareCut(); err != nil {
		t.Fatal(err)
	}
	if got := len(segmentSizes(t, vfs)); got != 2 {
		t.Fatalf("%d segment files after two PrepareCuts, want the active one and one made ahead", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if sizes := segmentSizes(t, vfs); len(sizes) != 1 || sizes[1] == 0 {
		t.Fatalf("segments after Close = %v, want only the active one", sizes)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec.Records, []Record{addRec(1)}) {
		t.Fatalf("recovered %+v", rec.Records)
	}
}

// TestTornTailBeforeSegmentMadeAhead: a flush tears the active segment while
// the segment made ahead for the next cut sits empty after it, its
// directory entry durable — what a crash leaves when it strikes between
// PrepareCut and the Cut's mark on a real file system (here the crash keeps
// the directory as the disk does, so the entry PrepareCut synced survives
// with no byte in it), or while the Cut's own write of the pending buffer
// fails.
// The empty segment holds nothing, so the tear is the log's torn tail, not
// corruption mid-log: recovery returns everything before it, Open seals
// both, and the log goes on.
func TestTornTailBeforeSegmentMadeAhead(t *testing.T) {
	for _, d := range []Durability{Buffered, Sync} {
		t.Run(d.String(), func(t *testing.T) {
			vfs := storage.NewMemFS()
			l, _ := mustOpen(t, vfs, d)
			var want []Record
			appendNext := func() {
				r := crashRec(len(want))
				want = append(want, r)
				appendAll(t, l, r)
			}
			tearNext := storage.FailurePlan{TornWrite: true, TornWriteDurable: true}
			makeAhead := func() {
				t.Helper()
				if err := l.PrepareCut(); err != nil {
					t.Fatal(err)
				}
			}
			if d == Sync {
				// Up to where the next record's batch crosses a page, so
				// that its write can tear.
				torn := crashRec(99)
				for {
					st := l.pendingState
					if l.segSize%storage.PageSize+int64(len(appendFrame(nil, segVersion, &st, torn))) > storage.PageSize {
						break
					}
					appendNext()
				}
				tearNext.FailAfterPageWrites = vfs.Stats().PageWrites + 1
				vfs.SetFailurePlan(tearNext)
				if err := l.Append(torn); err == nil {
					t.Fatal("torn append reported success")
				}
				vfs.SetFailurePlan(storage.FailurePlan{})
				makeAhead()
			} else {
				// One 64 KiB batch written and, as the OS would in time,
				// made durable; then records pending behind it, which the
				// Cut's write of the buffer tears.
				for l.Stats().Batches == 0 {
					appendNext()
				}
				f, err := vfs.Open(segmentName(1))
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
				for l.BufferedBytes() < 3*storage.PageSize {
					appendAll(t, l, crashRec(99))
				}
				makeAhead()
				tearNext.FailAfterPageWrites = vfs.Stats().PageWrites + 1
				vfs.SetFailurePlan(tearNext)
				if _, err := l.Cut(1); !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("cut over a failing write: %v", err)
				}
				vfs.SetFailurePlan(storage.FailurePlan{})
			}
			vfs.Crash(storage.CrashState{Directory: true, Entries: 0})
			if _, err := vfs.Open(segmentName(2)); err != nil {
				t.Fatalf("the crash lost the segment made ahead: %v", err)
			}

			rec, err := Recover(vfs)
			if err != nil {
				t.Fatalf("recovery of a torn tail before an empty segment: %v", err)
			}
			if !slices.Equal(rec.Records, want) {
				t.Fatalf("recovered %d records, want the %d before the tear", len(rec.Records), len(want))
			}
			l, rec, err = Open(vfs, Options{Durability: d})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if !slices.Equal(rec.Records, want) {
				t.Fatalf("reopen recovered %d records, want %d", len(rec.Records), len(want))
			}
			if err := l.PrepareCut(); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Cut(2); err != nil {
				t.Fatal(err)
			}
			after := crashRec(1000)
			appendAll(t, l, after)
			if err := l.SyncCut(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			vfs.Crash()
			rec, err = Recover(vfs)
			if err != nil {
				t.Fatalf("recovery after the sealing reopen: %v", err)
			}
			if got := append(slices.Clone(want), after); !slices.Equal(rec.Records, got) || len(rec.Cuts) != 1 || rec.Cuts[0] != (CutMark{Index: len(want), CP: 2}) {
				t.Fatalf("after the reopen's cut: %d records, cuts %+v; want %d and one cut after the first %d", len(rec.Records), rec.Cuts, len(got), len(want))
			}
		})
	}
}

// TestCutCreatesItsSegmentWhenPrepareFails: a PrepareCut that cannot create
// the segment leaves no file and no state behind, and the Cut creates the
// segment itself, under the next index.
func TestCutCreatesItsSegmentWhenPrepareFails(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Sync)
	appendAll(t, l, addRec(1))
	var failed bool
	vfs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op == storage.OpCreate && !failed {
			failed = true
			return storage.ErrInjected
		}
		return nil
	}})
	if err := l.PrepareCut(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("PrepareCut over a failing create: %v", err)
	}
	if sizes := segmentSizes(t, vfs); len(sizes) != 1 {
		t.Fatalf("segments after the failed PrepareCut = %v, want the active one", sizes)
	}
	if _, err := l.Cut(1); err != nil {
		t.Fatalf("cut after a failed PrepareCut: %v", err)
	}
	if got := l.names[len(l.names)-1]; got != segmentName(3) {
		t.Fatalf("the cut opened %s, want %s past the burned index", got, segmentName(3))
	}
	appendAll(t, l, addRec(2))
	if err := l.SyncCut(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	vfs.Crash()
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec.Records, []Record{addRec(1), addRec(2)}) || len(rec.Cuts) != 1 || rec.Cuts[0] != (CutMark{Index: 1, CP: 1}) {
		t.Fatalf("recovered %+v, cuts %+v", rec.Records, rec.Cuts)
	}
}

// TestHeaderlessSegmentsEndTheLog: a Buffered log reopened after a clean
// Close starts a segment whose header is written but never synced, and a
// checkpoint makes the next one ahead, syncing the directory. A power
// failure that keeps both entries, and neither header, leaves two empty
// segments after the log's last records: recovery ends the log before them
// and replays every record, and Open seals them.
func TestHeaderlessSegmentsEndTheLog(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Buffered)
	var want []Record
	for i := range 10 {
		want = append(want, crashRec(i))
	}
	appendAll(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = mustOpen(t, vfs, Buffered)
	if err := l.PrepareCut(); err != nil {
		t.Fatal(err)
	}
	vfs.Crash(storage.CrashState{Directory: true})
	if segs, _ := listSegments(vfs); len(segs) != 3 {
		t.Fatalf("after the crash: segments %v, want the log's and two empty ones", segs)
	}
	l, rec := mustOpen(t, vfs, Buffered)
	defer l.Close()
	if !slices.Equal(rec.Records, want) {
		t.Fatalf("recovered %d records, want the %d logged", len(rec.Records), len(want))
	}
}

// TestUndoneRetireOfUnsyncedSegments: a Buffered log's Retire removes
// segments that were never synced, and nothing syncs the directory after
// it, so a crash can bring them back empty — no durable header — ahead of
// the synced segment the committing Cut opened. They hold nothing: the log
// opens, and recovers what follows the cut.
func TestUndoneRetireOfUnsyncedSegments(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Buffered)
	appendAll(t, l, addRec(0), addRec(1))
	if _, err := l.Cut(1); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, addRec(2))
	cut, err := l.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, addRec(3))
	if err := l.Retire(cut); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	vfs.Crash(storage.CrashState{Directory: true})
	for _, index := range []uint64{1, 2} {
		if ok, err := segmentHasHeader(vfs, index); err != nil || ok {
			t.Fatalf("retired segment %d after the crash: header %v (%v), want back without one", index, ok, err)
		}
	}
	want := Recovered{Records: []Record{addRec(3)}, Cuts: []CutMark{{Index: 0, CP: 2}}, Found: true}
	for i := range 2 {
		rec, err := Recover(vfs)
		if err != nil || !reflect.DeepEqual(rec, want) {
			t.Fatalf("recovery %d: %+v (%v), want %+v", i, rec, err, want)
		}
		l, _ := mustOpen(t, vfs, Buffered)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchStateFollowsItsSegment: a batch's elision state is the state of
// the segment it lands in. The records here continue one file at one CP, so
// a batch that took the state of the segment before would elide a
// continuation or a CP the segment it lands in never set. They are appended
// where the segment changes under them: during the I/O of a flush's
// rotation — the record that found the segment full starts a batch of its
// own, and those that arrive meanwhile join it, all in the new segment's
// first frame — and after a failed flush's Cut. Recovery reads exactly the
// records whose appends were not reported failed, in both modes, on one
// processor and on four.
func TestBatchStateFollowsItsSegment(t *testing.T) {
	rec := func(i int) Record {
		return Record{Op: OpAddRef, Block: uint64(1000 + i), Inode: 7, Offset: uint64(i), Length: 1, CP: 2}
	}
	for _, procs := range []int{1, 4} {
		for _, d := range []Durability{Buffered, Sync} {
			t.Run(fmt.Sprintf("%s/procs=%d", d, procs), func(t *testing.T) {
				onProcessors(t, procs)
				t.Run("rotation", func(t *testing.T) {
					// The rotation's first I/O: a Buffered log fsyncs the
					// outgoing segment, a Sync one creates the next.
					held := storage.OpCreate
					if d == Buffered {
						held = storage.OpSync
					}
					var armed atomic.Bool
					entered, release := make(chan struct{}), make(chan struct{})
					vfs := storage.NewMemFS()
					vfs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
						if c.Op == held && armed.CompareAndSwap(true, false) {
							close(entered)
							<-release
						}
						return nil
					}})
					l, _, err := Open(vfs, Options{Durability: d, SegmentBytes: 256})
					if err != nil {
						t.Fatal(err)
					}
					var want []Record
					full := func() bool {
						l.mu.Lock()
						defer l.mu.Unlock()
						return l.segSize >= l.segBytes
					}
					for !full() {
						want = append(want, rec(len(want)))
						appendAll(t, l, want[len(want)-1])
					}
					const joining = 5
					armed.Store(true)
					errs := make(chan error, 1+joining)
					first := rec(len(want))
					go func() { errs <- l.Append(first) }()
					<-entered
					during := []Record{first}
					for i := range joining {
						r := rec(len(want) + 1 + i)
						during = append(during, r)
						go func() { errs <- l.Append(r) }()
					}
					awaitLog(l, func() bool { return l.pendingRecs.Load() == 1+joining })
					close(release)
					for range during {
						if err := <-errs; err != nil {
							t.Fatal(err)
						}
					}
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					segs, err := listSegments(vfs)
					if err != nil || len(segs) != 2 {
						t.Fatalf("segments %v (%v), want the full one and the one the rotation opened", segs, err)
					}
					frames, _, err := decodeFrames(readSegmentFile(t, vfs, segs[1])[segHeaderSize:], segVersion)
					if err != nil || len(frames) != 1 || len(frames[0]) != 1+joining {
						t.Fatalf("the new segment holds the frames %+v (%v), want one of the %d records appended during the rotation", frames, err, 1+joining)
					}
					got, err := Recover(vfs)
					if err != nil {
						t.Fatal(err)
					}
					// The joiners' order is the scheduler's.
					slices.SortFunc(got.Records[min(len(want), len(got.Records)):], func(a, b Record) int { return int(a.Block) - int(b.Block) })
					if want = append(want, during...); !slices.Equal(got.Records, want) {
						t.Fatalf("recovered %+v, want %+v", got.Records, want)
					}
				})
				t.Run("cut after a failed flush", func(t *testing.T) {
					var fail atomic.Bool
					vfs := storage.NewMemFS()
					vfs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
						if c.Op == storage.OpWrite && fail.CompareAndSwap(true, false) {
							return storage.ErrInjected
						}
						return nil
					}})
					l, _ := mustOpen(t, vfs, d)
					var want []Record
					before := []Record{rec(0), rec(1), rec(2)}
					appendAll(t, l, before...)
					fail.Store(true)
					if d == Sync {
						// The flush of the next record fails; the Cut
						// drops nothing acknowledged.
						want = before
						if err := l.Append(rec(3)); !errors.Is(err, storage.ErrInjected) {
							t.Fatalf("append over a failing write: %v", err)
						}
					} else if _, err := l.Cut(1); !errors.Is(err, storage.ErrInjected) {
						// The Cut's own write of the buffer fails, and
						// reports those records lost.
						t.Fatalf("cut over a failing write: %v", err)
					}
					if _, err := l.Cut(1); err != nil {
						t.Fatal(err)
					}
					after := []Record{rec(4), rec(5), rec(6)}
					appendAll(t, l, after...)
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					got, err := Recover(vfs)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, after...)
					if !slices.Equal(got.Records, want) || !slices.Equal(got.Cuts, []CutMark{{Index: len(want) - len(after), CP: 1}}) {
						t.Fatalf("recovered %+v, cuts %+v; want %+v behind one cut", got.Records, got.Cuts, want)
					}
				})
			})
		}
	}
}
