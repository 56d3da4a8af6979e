package storage

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// testRecorder counts attributed I/O per source, mirroring the shape of
// the production recorder (obs.IOStats) without the obs dependency.
type testRecorder struct {
	wantLat    bool
	sawLatency bool

	readBytes  [NumSources]uint64
	readOps    [NumSources]uint64
	writeBytes [NumSources]uint64
	writeOps   [NumSources]uint64
	syncs      [NumSources]uint64
	creates    [NumSources]uint64
	removes    [NumSources]uint64
}

func (r *testRecorder) RecordRead(src Source, n int, d time.Duration) {
	r.readOps[src]++
	r.readBytes[src] += uint64(n)
	if d > 0 {
		r.sawLatency = true
	}
}

func (r *testRecorder) RecordWrite(src Source, n int, d time.Duration) {
	r.writeOps[src]++
	r.writeBytes[src] += uint64(n)
	if d > 0 {
		r.sawLatency = true
	}
}

func (r *testRecorder) RecordSync(src Source, d time.Duration) {
	r.syncs[src]++
	if d > 0 {
		r.sawLatency = true
	}
}

func (r *testRecorder) RecordWriteBytes(src Source, n int) { r.writeBytes[src] += uint64(n) }

func (r *testRecorder) RecordCreate(src Source) { r.creates[src]++ }
func (r *testRecorder) RecordRemove(src Source) { r.removes[src]++ }
func (r *testRecorder) WantsLatency() bool      { return r.wantLat }

func sum(a [NumSources]uint64) (t uint64) {
	for _, v := range a {
		t += v
	}
	return
}

// TestAttributedRecordingMatchesMetering drives mixed I/O under several
// sources and checks both sides of the accounting contract: per-source
// counters land under the issuing source, and their sums equal the
// underlying MemFS metering exactly (same n recorded, no double counting).
func TestAttributedRecordingMatchesMetering(t *testing.T) {
	mem := NewMemFS()
	rec := &testRecorder{}
	afs := Attributed(mem, rec)

	wal := afs.Tagged(SrcWAL)
	cp := afs.Tagged(SrcCheckpoint)
	q := afs.Tagged(SrcQuery)

	wf, err := wal.Create("wal-000001")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	if _, err := wf.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.WriteAt(payload, 1000); err != nil {
		t.Fatal(err)
	}
	if err := wf.Sync(); err != nil {
		t.Fatal(err)
	}

	cf, err := cp.Create("run-000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.WriteAt(payload[:512], 0); err != nil {
		t.Fatal(err)
	}
	if err := cf.Sync(); err != nil {
		t.Fatal(err)
	}

	qf, err := q.Open("run-000001")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := qf.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload[:512]) {
		t.Fatal("attributed read returned different bytes")
	}
	if err := cp.Remove("wal-000001"); err != nil {
		t.Fatal(err)
	}

	if got := rec.writeBytes[SrcWAL]; got != 2000 {
		t.Errorf("wal write bytes = %d, want 2000", got)
	}
	if got := rec.writeBytes[SrcCheckpoint]; got != 512 {
		t.Errorf("checkpoint write bytes = %d, want 512", got)
	}
	if got := rec.readBytes[SrcQuery]; got != 512 {
		t.Errorf("query read bytes = %d, want 512", got)
	}
	if got := rec.removes[SrcCheckpoint]; got != 1 {
		t.Errorf("checkpoint removes = %d, want 1", got)
	}

	st := mem.Stats()
	if got, want := sum(rec.readBytes), uint64(st.BytesRead); got != want {
		t.Errorf("attributed read bytes = %d, metered = %d", got, want)
	}
	if got, want := sum(rec.writeBytes), uint64(st.BytesWritten); got != want {
		t.Errorf("attributed write bytes = %d, metered = %d", got, want)
	}
	if got, want := sum(rec.syncs), uint64(st.Syncs); got != want {
		t.Errorf("attributed syncs = %d, metered = %d", got, want)
	}
	if got, want := sum(rec.creates), uint64(st.FilesCreated); got != want {
		t.Errorf("attributed creates = %d, metered = %d", got, want)
	}
	if got, want := sum(rec.removes), uint64(st.FilesRemoved); got != want {
		t.Errorf("attributed removes = %d, metered = %d", got, want)
	}
	if rec.sawLatency {
		t.Error("recorder without WantsLatency saw a nonzero duration")
	}
}

// TestAttributedTornWriteRecordsPrefix injects a torn write and checks the
// recorder counts the applied prefix — the same bytes the metered MemFS
// counts — so attribution sums stay exact across failures.
func TestAttributedTornWriteRecordsPrefix(t *testing.T) {
	mem := NewMemFS()
	rec := &testRecorder{}
	wal := Attributed(mem, rec).Tagged(SrcWAL)

	f, err := wal.Create("wal-000001")
	if err != nil {
		t.Fatal(err)
	}
	mem.SetFailurePlan(FailurePlan{FailAfterPageWrites: 1, TornWrite: true})
	n, err := f.WriteAt(make([]byte, 3*PageSize), 0)
	if err == nil {
		t.Fatal("expected injected write error")
	}
	if n <= 0 || n >= 3*PageSize {
		t.Fatalf("torn write applied %d bytes, expected a strict prefix", n)
	}
	if got := rec.writeBytes[SrcWAL]; got != uint64(n) {
		t.Errorf("recorded %d write bytes, torn write applied %d", got, n)
	}
	if got, want := sum(rec.writeBytes), uint64(mem.Stats().BytesWritten); got != want {
		t.Errorf("attributed write bytes = %d, metered = %d", got, want)
	}
}

// TestTagPassThrough checks the unconditional-tagging contract: on inputs
// that did not come from Attributed, TagVFS and TagFile return their
// argument unchanged, so call sites never branch on whether attribution is
// enabled.
// TestWriteAtSplit: a split write is one write of the file's source, and
// its tail's bytes are the other source's; MemFS meters one write. On an
// unattributed file it is a plain WriteAt.
func TestWriteAtSplit(t *testing.T) {
	mem := NewMemFS()
	rec := &testRecorder{}
	f, err := Attributed(mem, rec).Tagged(SrcCheckpoint).Create("cp")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := WriteAtSplit(f, make([]byte, 5000), 100, 300, SrcManifest); n != 5000 || err != nil {
		t.Fatalf("WriteAtSplit = %d, %v", n, err)
	}
	if rec.writeOps[SrcCheckpoint] != 1 || rec.writeBytes[SrcCheckpoint] != 4700 || rec.writeOps[SrcManifest] != 0 || rec.writeBytes[SrcManifest] != 300 {
		t.Fatalf("recorded ops %v bytes %v, want one checkpoint write of 4700 bytes and 300 manifest bytes", rec.writeOps, rec.writeBytes)
	}
	if st := mem.Stats(); st.BytesWritten != 5000 || st.PageWrites != 2 || st.Calls != 2 {
		t.Fatalf("MemFS metered %+v, want one write of 5000 bytes over 2 pages", st)
	}
	g, _ := mem.Create("plain")
	if n, err := WriteAtSplit(g, []byte("abc"), 0, 1, SrcManifest); n != 3 || err != nil {
		t.Fatalf("WriteAtSplit on a plain file = %d, %v", n, err)
	}
}

func TestTagPassThrough(t *testing.T) {
	mem := NewMemFS()
	if got := TagVFS(mem, SrcWAL); got != VFS(mem) {
		t.Error("TagVFS changed an unattributed VFS")
	}
	f, err := mem.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := TagFile(f, SrcQuery); got != f {
		t.Error("TagFile changed an unattributed file")
	}
}

// TestTagRetagging checks re-tagging on attributed handles: TagVFS derives
// a handle under the new source, and TagFile re-tags an open file.
func TestTagRetagging(t *testing.T) {
	mem := NewMemFS()
	rec := &testRecorder{}
	afs := Attributed(mem, rec)

	unk := afs.Tagged(SrcUnknown)
	wal := TagVFS(unk, SrcWAL)
	f, err := wal.Create("wal-000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abcd"), 0); err != nil {
		t.Fatal(err)
	}

	qf := TagFile(f, SrcQuery)
	buf := make([]byte, 4)
	if _, err := qf.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// The original handle must keep its source: re-tagging derives, it
	// does not mutate.
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	if rec.creates[SrcWAL] != 1 || rec.writeBytes[SrcWAL] != 4 {
		t.Errorf("wal: creates=%d writeBytes=%d, want 1/4", rec.creates[SrcWAL], rec.writeBytes[SrcWAL])
	}
	if rec.readBytes[SrcQuery] != 4 {
		t.Errorf("query read bytes = %d, want 4", rec.readBytes[SrcQuery])
	}
	if rec.readBytes[SrcWAL] != 4 {
		t.Errorf("wal read bytes = %d, want 4 (original handle re-tagged?)", rec.readBytes[SrcWAL])
	}
	if n := sum(rec.readBytes) + sum(rec.writeBytes); rec.readBytes[SrcUnknown] != 0 && n != 0 {
		t.Errorf("unknown source leaked %d read bytes", rec.readBytes[SrcUnknown])
	}
}

// TestAttributedLatencyGate checks that the latency flag is snapshotted at
// wrap time from WantsLatency and durations flow once it is set.
func TestAttributedLatencyGate(t *testing.T) {
	mem := NewMemFS()
	rec := &testRecorder{wantLat: true}
	wal := Attributed(mem, rec).Tagged(SrcWAL)
	f, err := wal.Create("wal-000001")
	if err != nil {
		t.Fatal(err)
	}
	// MemFS models disk time but completes instantly on the wall clock;
	// issue enough I/O that at least one nonzero monotonic-clock delta is
	// all but certain.
	buf := make([]byte, PageSize)
	for i := 0; i < 1000; i++ {
		if _, err := f.WriteAt(buf, int64(i)*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if !rec.sawLatency {
		t.Error("recorder wanting latency never saw a nonzero duration")
	}
}

// BenchmarkIOAttribution measures the attribution wrapper's per-I/O cost
// over the raw metered MemFS — the storage-level bound on what the
// engine's always-on attribution costs.
func BenchmarkIOAttribution(b *testing.B) {
	for _, attributed := range []bool{false, true} {
		name := "raw"
		if attributed {
			name = "attributed"
		}
		b.Run(fmt.Sprintf("writeAt/%s", name), func(b *testing.B) {
			var vfs VFS = NewMemFS()
			if attributed {
				vfs = Attributed(vfs, &testRecorder{}).Tagged(SrcWAL)
			}
			f, err := vfs.Create("bench")
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 256)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.WriteAt(buf, int64(i%64)*256); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("readAt/%s", name), func(b *testing.B) {
			var vfs VFS = NewMemFS()
			if attributed {
				vfs = Attributed(vfs, &testRecorder{}).Tagged(SrcQuery)
			}
			f, err := vfs.Create("bench")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, 64*256), 0); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 256)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadAt(buf, int64(i%64)*256); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
