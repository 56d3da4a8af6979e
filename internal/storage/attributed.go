package storage

import "time"

// Source identifies the subsystem on whose behalf an I/O was issued. The
// attribution wrapper (Attributed) stamps every VFS and File operation
// with one, so byte-level accounting can answer "which subsystem wrote
// those bytes?" — the per-update I/O economics the paper's evaluation is
// built around, broken out by purpose.
type Source uint8

const (
	// SrcUnknown tags I/O issued through an attributed VFS that was never
	// re-tagged. Hot paths must never leave I/O here; the attribution race
	// test asserts zero unknown bytes.
	SrcUnknown Source = iota
	// SrcWAL is write-ahead-log appends, group-commit flushes, segment
	// rotation, and retirement.
	SrcWAL
	// SrcCheckpoint is checkpoint flush I/O: Level-0 run builds and stale
	// WAL retirement.
	SrcCheckpoint
	// SrcCompaction is merge I/O: reading input runs and writing merged
	// output runs.
	SrcCompaction
	// SrcQuery is read I/O serving queries: run page reads, Bloom filter
	// loads, and relocation's record collection.
	SrcQuery
	// SrcExpiry is drop-based expiry. Expiry reads and rewrites no data —
	// it only drops whole runs — so this source carries file removals and
	// (ideally) zero bytes.
	SrcExpiry
	// SrcRecovery is startup I/O: manifest and deletion-vector loads, the
	// header pages of runs whose commit carries no header, WAL segment
	// scans, and orphan collection.
	SrcRecovery
	// SrcManifest is commit-point I/O: a commit's trailer bytes, the
	// commit files of commits that build no run, and deletion-vector
	// persistence, regardless of which operation triggered the commit.
	SrcManifest

	// NumSources is the number of defined sources, for sizing per-source
	// counter arrays.
	NumSources = int(SrcManifest) + 1
)

var sourceNames = [NumSources]string{
	"unknown", "wal", "checkpoint", "compaction", "query", "expiry",
	"recovery", "manifest",
}

func (s Source) String() string {
	if int(s) < NumSources {
		return sourceNames[s]
	}
	return "invalid"
}

// IORecorder receives one callback per attributed I/O. Implementations
// must be safe for concurrent use (internal/obs.IOStats is the production
// one). The dur arguments are zero unless WantsLatency reports true —
// skipping the two clock reads per I/O is what keeps attribution within
// its overhead budget when no latency sink is attached.
type IORecorder interface {
	RecordRead(src Source, bytes int, dur time.Duration)
	RecordWrite(src Source, bytes int, dur time.Duration)
	// RecordWriteBytes adds bytes that a write recorded under another
	// source carried for src (WriteAtSplit).
	RecordWriteBytes(src Source, bytes int)
	RecordSync(src Source, dur time.Duration)
	RecordCreate(src Source)
	RecordRemove(src Source)
	// WantsLatency reports whether the recorder consumes I/O durations.
	// Consulted once at wrap time, not per I/O.
	WantsLatency() bool
}

// AttributedFS owns the attribution state for one wrapped VFS: the
// recorder and the latency gate. It is not itself a VFS; Tagged derives
// source-stamped VFS handles from it.
type AttributedFS struct {
	inner VFS
	rec   IORecorder
	lat   bool
}

// Attributed wraps a VFS for purpose-tagged I/O accounting. Every
// operation on a VFS derived via Tagged (and on files it opens) is
// reported to rec under that handle's Source. The wrapper changes no
// bytes, names, or error behavior — byte-identical output is part of its
// contract — and forwards the metering Stats of the underlying VFS
// untouched, so attributed per-source byte sums can be checked against
// the device totals.
func Attributed(inner VFS, rec IORecorder) *AttributedFS {
	return &AttributedFS{inner: inner, rec: rec, lat: rec.WantsLatency()}
}

// Base returns the wrapped VFS.
func (a *AttributedFS) Base() VFS { return a.inner }

// Tagged returns a VFS handle whose every operation is attributed to src.
// Handles are cheap; derive one per call site.
func (a *AttributedFS) Tagged(src Source) VFS {
	return &taggedVFS{a: a, src: src}
}

// TagVFS re-tags an attributed VFS handle to a new source. A VFS that did
// not come from Attributed is returned unchanged, so call sites can tag
// unconditionally whether or not attribution is enabled.
func TagVFS(vfs VFS, src Source) VFS {
	if t, ok := vfs.(*taggedVFS); ok {
		return t.a.Tagged(src)
	}
	return vfs
}

// TagFile re-tags a file obtained from an attributed VFS to a new source
// (the per-purpose run readers use this: one file handle per source over
// the same underlying file). Files from unattributed VFSs pass through
// unchanged.
func TagFile(f File, src Source) File {
	if t, ok := f.(*taggedFile); ok {
		return &taggedFile{f: t.f, a: t.a, src: src}
	}
	return f
}

// taggedVFS is a source-stamped handle over an AttributedFS.
type taggedVFS struct {
	a   *AttributedFS
	src Source
}

func (t *taggedVFS) Create(name string) (File, error) {
	f, err := t.a.inner.Create(name)
	if err != nil {
		return nil, err
	}
	t.a.rec.RecordCreate(t.src)
	return &taggedFile{f: f, a: t.a, src: t.src}, nil
}

func (t *taggedVFS) Open(name string) (File, error) {
	f, err := t.a.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &taggedFile{f: f, a: t.a, src: t.src}, nil
}

func (t *taggedVFS) Remove(name string) error {
	if err := t.a.inner.Remove(name); err != nil {
		return err
	}
	t.a.rec.RecordRemove(t.src)
	return nil
}

func (t *taggedVFS) List() ([]string, error) { return t.a.inner.List() }

func (t *taggedVFS) Stats() Stats { return t.a.inner.Stats() }

// SyncDir forwards to the underlying VFS. Directory syncs are not
// recorded: the metered MemFS does not count them either, and attribution
// sums are checked against its totals.
func (t *taggedVFS) SyncDir() error { return t.a.inner.SyncDir() }

// taggedFile attributes every file operation to its source.
type taggedFile struct {
	f   File
	a   *AttributedFS
	src Source
}

func (t *taggedFile) ReadAt(p []byte, off int64) (int, error) {
	var start time.Time
	if t.a.lat {
		start = time.Now()
	}
	n, err := t.f.ReadAt(p, off)
	var d time.Duration
	if t.a.lat {
		d = time.Since(start)
	}
	t.a.rec.RecordRead(t.src, n, d)
	return n, err
}

func (t *taggedFile) WriteAt(p []byte, off int64) (int, error) {
	var start time.Time
	if t.a.lat {
		start = time.Now()
	}
	n, err := t.f.WriteAt(p, off)
	var d time.Duration
	if t.a.lat {
		d = time.Since(start)
	}
	// Bytes are recorded even on error: a torn write that applied a prefix
	// moved n bytes to the device, and the metered MemFS counts them too.
	t.a.rec.RecordWrite(t.src, n, d)
	return n, err
}

// WriteAtSplit is f.WriteAt(p, off), one write, which attributes the last
// tail bytes it wrote to src, and the write itself and the rest of its
// bytes to f's own source: a commit's trailer rides the final write of the
// run file that carries it, and its bytes stay the manifest's. A file from
// an unattributed VFS is written as by WriteAt.
func WriteAtSplit(f File, p []byte, off int64, tail int, src Source) (int, error) {
	t, ok := f.(*taggedFile)
	if !ok {
		return f.WriteAt(p, off)
	}
	var start time.Time
	if t.a.lat {
		start = time.Now()
	}
	n, err := t.f.WriteAt(p, off)
	var d time.Duration
	if t.a.lat {
		d = time.Since(start)
	}
	head := min(n, len(p)-tail)
	t.a.rec.RecordWrite(t.src, head, d)
	t.a.rec.RecordWriteBytes(src, n-head)
	return n, err
}

func (t *taggedFile) Size() (int64, error) { return t.f.Size() }

func (t *taggedFile) Sync() error {
	var start time.Time
	if t.a.lat {
		start = time.Now()
	}
	if err := t.f.Sync(); err != nil {
		return err
	}
	var d time.Duration
	if t.a.lat {
		d = time.Since(start)
	}
	t.a.rec.RecordSync(t.src, d)
	return nil
}

func (t *taggedFile) Close() error { return t.f.Close() }
