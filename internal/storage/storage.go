// Package storage provides the page-level storage substrate that the rest of
// the Backlog reproduction is built on.
//
// The package exposes a small virtual file system (VFS) abstraction with two
// implementations:
//
//   - MemFS: a deterministic in-memory file system that meters every I/O at
//     4 KB page granularity and models disk time (seek + transfer at a
//     configurable sequential throughput). Its FailurePlan fails, pauses or
//     counts any call by name, kills the process at any mutating call, and
//     tears writes; crash simulation discards what was not made durable, or
//     keeps a chosen part of it (CrashState). The recovery tests inject every
//     fault through it.
//   - DirFS: a thin wrapper over a real directory using the os package.
//
// All Backlog on-disk structures (read-store runs, manifests, deletion
// vectors) are written through this interface, so the benchmark harness can
// report exactly how many 4 KB page writes each block operation costs — the
// unit used throughout the paper's evaluation (Figures 5 and 7).
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the file system page size assumed throughout the system.
// The paper's evaluation uses 4 KB blocks (Section 6.1).
const PageSize = 4096

// ErrNotExist is returned when a named file does not exist.
var ErrNotExist = errors.New("storage: file does not exist")

// ErrExist is returned when creating a file that already exists.
var ErrExist = errors.New("storage: file already exists")

// ErrNewerFormat reports a file whose format version is above the newest
// this binary reads: a newer binary wrote it, and it is not damaged, but it
// cannot be read here. Every decoder of a versioned file refuses such a
// version with it (btree.ErrNewerFormat is this error).
var ErrNewerFormat = errors.New("format newer than this binary")

// ErrInjected is the base error for injected failures; use errors.Is to
// detect it in failure-injection tests.
var ErrInjected = errors.New("storage: injected failure")

// File is a random-access file handle.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the current length of the file in bytes.
	Size() (int64, error)
	// Sync makes the current contents durable. On MemFS, contents written
	// but not synced are lost by Crash.
	Sync() error
	// Close releases the handle. Closing does not imply Sync.
	Close() error
}

// VFS is the minimal file system interface the storage layer requires.
type VFS interface {
	// Create creates a new empty file. It fails with ErrExist if the name
	// is already in use.
	Create(name string) (File, error)
	// Open opens an existing file for reading and writing.
	Open(name string) (File, error)
	// Remove deletes a file. Removing a non-existent file returns
	// ErrNotExist.
	Remove(name string) error
	// SyncDir makes the directory's entries durable: the files created and
	// removed since the last SyncDir stay so through a crash. A caller calls
	// it where it promises durability that rests on an entry: a commit after
	// the file that carries it is synced, and the write-ahead log after
	// creating a segment, before the segment's first record is acknowledged.
	SyncDir() error
	// List returns the names of all files, sorted.
	List() ([]string, error)
	// Stats returns the I/O accounting for this VFS. Implementations that
	// do not meter I/O return a zero-valued snapshot.
	Stats() Stats
}

// Stats is a snapshot of I/O accounting counters.
//
// PageWrites and PageReads count 4 KB page-granularity transfers: an I/O of
// n bytes starting at offset off touches the pages spanning
// [off, off+n), and each touched page counts once per call. This matches the
// paper's "I/O Writes (4 KB blocks)" metric.
type Stats struct {
	PageReads    int64 // 4 KB pages read
	PageWrites   int64 // 4 KB pages written
	BytesRead    int64
	BytesWritten int64
	Syncs        int64
	FilesCreated int64
	FilesRemoved int64
	Calls        int64 // mutating calls, failed ones too; FailurePlan.KillAt numbers them
	// DiskNanos is modeled disk time in nanoseconds, computed by the
	// DiskModel of a MemFS. Zero for unmetered implementations.
	DiskNanos int64
}

// Sub returns the counter-wise difference s - prev. Use it to meter a
// region of execution:
//
//	before := fs.Stats()
//	... work ...
//	delta := fs.Stats().Sub(before)
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		PageReads:    s.PageReads - prev.PageReads,
		PageWrites:   s.PageWrites - prev.PageWrites,
		BytesRead:    s.BytesRead - prev.BytesRead,
		BytesWritten: s.BytesWritten - prev.BytesWritten,
		Syncs:        s.Syncs - prev.Syncs,
		FilesCreated: s.FilesCreated - prev.FilesCreated,
		FilesRemoved: s.FilesRemoved - prev.FilesRemoved,
		Calls:        s.Calls - prev.Calls,
		DiskNanos:    s.DiskNanos - prev.DiskNanos,
	}
}

// Add returns the counter-wise sum s + other.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		PageReads:    s.PageReads + other.PageReads,
		PageWrites:   s.PageWrites + other.PageWrites,
		BytesRead:    s.BytesRead + other.BytesRead,
		BytesWritten: s.BytesWritten + other.BytesWritten,
		Syncs:        s.Syncs + other.Syncs,
		FilesCreated: s.FilesCreated + other.FilesCreated,
		FilesRemoved: s.FilesRemoved + other.FilesRemoved,
		Calls:        s.Calls + other.Calls,
		DiskNanos:    s.DiskNanos + other.DiskNanos,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d bytesR=%d bytesW=%d syncs=%d",
		s.PageReads, s.PageWrites, s.BytesRead, s.BytesWritten, s.Syncs)
}

// pagesSpanned returns how many PageSize pages the byte range
// [off, off+n) touches.
func pagesSpanned(off int64, n int) int64 {
	if n <= 0 {
		return 0
	}
	first := off / PageSize
	last := (off + int64(n) - 1) / PageSize
	return last - first + 1
}

// DiskModel converts page-level I/O into modeled disk time. The defaults
// approximate the evaluation platform in the paper: a 15K RPM SAS drive with
// 60 MB/s of write throughput and a ~4 ms positioning penalty for
// non-sequential reads. Writes carry a much smaller penalty: a
// write-anywhere file system batches all of a consistency point's writes
// into near-sequential stripes, so switching output files costs a short
// stripe switch, not a full seek.
type DiskModel struct {
	// SeekNanos is charged for every read that is not sequential with the
	// previous I/O on the same device.
	SeekNanos int64
	// WriteSeekNanos is charged for every non-sequential write.
	WriteSeekNanos int64
	// BytesPerSecond is the sequential transfer rate.
	BytesPerSecond int64
}

// DefaultDiskModel matches the Fujitsu MAX3073RC used in the paper's fsim
// experiments (Section 6.1).
func DefaultDiskModel() DiskModel {
	return DiskModel{SeekNanos: 4_000_000, WriteSeekNanos: 200_000, BytesPerSecond: 60 << 20}
}

// cost returns the modeled time for an I/O of n bytes, given whether it was
// sequential with the previous I/O.
func (m DiskModel) cost(n int, sequential, write bool) int64 {
	var t int64
	if !sequential {
		if write {
			t += m.WriteSeekNanos
		} else {
			t += m.SeekNanos
		}
	}
	if m.BytesPerSecond > 0 {
		t += int64(n) * 1_000_000_000 / m.BytesPerSecond
	}
	return t
}

// Op names a call on a MemFS or one of its files, for FailurePlan.Hook.
type Op uint8

const (
	OpCreate Op = iota
	OpWrite
	OpSync
	OpRemove
	OpOpen
	OpList
	OpRead
	OpSize
	OpClose
	OpSyncDir
)

// Call is one call as FailurePlan.Hook sees it.
type Call struct {
	Op   Op
	Name string // the file; "" for List and SyncDir
	Off  int64  // ReadAt, WriteAt
	Len  int    // ReadAt, WriteAt
}

// FailurePlan configures failure injection on a MemFS.
type FailurePlan struct {
	// FailAfterPageWrites, when > 0, causes every page write after the
	// first N to fail with ErrInjected. The page counter is global across
	// files.
	FailAfterPageWrites int64
	// KillAt, when > 0, kills the process at the mutating call (Create,
	// WriteAt, Sync, Remove) that takes Stats.Calls to KillAt: it and every
	// later one fail with ErrInjected and change nothing, but a write at
	// KillAt applies half its pages when TornWrite is set. A SyncDir after
	// the kill fails too.
	KillAt int64
	// Hook, when set, runs before every VFS and File call, outside the MemFS
	// lock, so it may block, sleep, count or call the file system itself; an
	// error it returns fails the call, which then does and counts nothing.
	Hook func(Call) error
	// TornWrite, when true, makes the failing write apply a prefix of its
	// payload before reporting the error (modeling a torn sector write).
	TornWrite bool
	// TornWriteDurable additionally makes the torn write's applied prefix
	// — and only it — durable immediately, modeling sectors that reached
	// the platter before power failed. Earlier unsynced writes to the
	// file stay volatile. Without this, the torn prefix is discarded by
	// Crash unless the file is synced afterwards — which an appender that
	// just saw the write fail never does. The WAL torn-tail recovery
	// tests use this to plant a genuinely durable half-written record.
	TornWriteDurable bool
}

// MemFS is an in-memory VFS with I/O metering, a disk-time model, failure
// injection, and crash simulation. The zero value is not usable; call
// NewMemFS.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	stats Stats
	model DiskModel
	plan  FailurePlan
	hook  atomic.Pointer[func(Call) error] // plan.Hook, read without mu

	// lastFile/lastEnd track the device head position for the sequential
	// access model.
	lastFile *memFile
	lastEnd  int64

	// entries are the entry operations since the last SyncDir, in order,
	// for a crash that keeps a prefix of them (CrashState.Directory).
	entries []entryOp
}

// entryOp is one Create (create set) or Remove of file f.
type entryOp struct {
	create bool
	f      *memFile
}

// NewMemFS returns an empty in-memory file system using DefaultDiskModel.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), model: DefaultDiskModel()}
}

// SetDiskModel replaces the disk-time model.
func (fs *MemFS) SetDiskModel(m DiskModel) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.model = m
}

// SetFailurePlan installs a failure-injection plan. A zero plan disables
// injection.
func (fs *MemFS) SetFailurePlan(p FailurePlan) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.plan = p
	fs.hook.Store(&p.Hook)
}

// call runs the plan's hook, if any, on c. It must not hold fs.mu.
func (fs *MemFS) call(c Call) error {
	if h := fs.hook.Load(); h != nil && *h != nil {
		return (*h)(c)
	}
	return nil
}

// killed numbers a mutating call; true if KillAt fails it. Must hold fs.mu.
func (fs *MemFS) killed() bool {
	fs.stats.Calls++
	return fs.plan.KillAt > 0 && fs.stats.Calls >= fs.plan.KillAt
}

type memFile struct {
	fs      *MemFS
	name    string
	data    []byte
	durable []byte // contents as of the last Sync; nil if never synced
	synced  bool   // whether the file has ever been synced (exists after crash)
	removed bool
}

// Create implements VFS.
func (fs *MemFS) Create(name string) (File, error) {
	if err := fs.call(Call{Op: OpCreate, Name: name}); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.killed() {
		return nil, fmt.Errorf("create %q: %w", name, ErrInjected)
	}
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("create %q: %w", name, ErrExist)
	}
	f := &memFile{fs: fs, name: name}
	fs.files[name] = f
	fs.entries = append(fs.entries, entryOp{create: true, f: f})
	fs.stats.FilesCreated++
	return f, nil
}

// Open implements VFS.
func (fs *MemFS) Open(name string) (File, error) {
	if err := fs.call(Call{Op: OpOpen, Name: name}); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("open %q: %w", name, ErrNotExist)
	}
	return f, nil
}

// Remove implements VFS.
func (fs *MemFS) Remove(name string) error {
	if err := fs.call(Call{Op: OpRemove, Name: name}); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.killed() {
		return fmt.Errorf("remove %q: %w", name, ErrInjected)
	}
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("remove %q: %w", name, ErrNotExist)
	}
	f.removed = true
	delete(fs.files, name)
	fs.entries = append(fs.entries, entryOp{f: f})
	fs.stats.FilesRemoved++
	return nil
}

// SyncDir implements VFS: the entry operations made so far survive every
// crash. FailurePlan.Hook sees it (OpSyncDir, Name ""); it is not a
// mutating call, so KillAt does not number it, but once the process is
// killed it fails and changes nothing.
func (fs *MemFS) SyncDir() error {
	if err := fs.call(Call{Op: OpSyncDir}); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.plan.KillAt > 0 && fs.stats.Calls >= fs.plan.KillAt {
		return fmt.Errorf("sync directory: %w", ErrInjected)
	}
	fs.entries = nil
	return nil
}

// List implements VFS.
func (fs *MemFS) List() ([]string, error) {
	if err := fs.call(Call{Op: OpList}); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Stats implements VFS.
func (fs *MemFS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// PendingEntries returns how many entry operations (Create, Remove) were
// made since the last SyncDir: the ones a CrashState's Entries chooses a
// prefix of.
func (fs *MemFS) PendingEntries() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.entries)
}

// Clone returns an independent copy of the file system as it stands — every
// file's contents, written and synced, and the entry operations since the
// last SyncDir — so that one run can be crashed into several states. The
// copy has the same statistics and disk model and no failure plan.
func (fs *MemFS) Clone() *MemFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := &MemFS{files: make(map[string]*memFile, len(fs.files)), stats: fs.stats, model: fs.model}
	copies := make(map[*memFile]*memFile)
	dup := func(f *memFile) *memFile {
		if g, ok := copies[f]; ok {
			return g
		}
		g := &memFile{fs: c, name: f.name, data: bytes.Clone(f.data), durable: bytes.Clone(f.durable), synced: f.synced, removed: f.removed}
		copies[f] = g
		return g
	}
	for name, f := range fs.files {
		c.files[name] = dup(f)
	}
	for _, op := range fs.entries {
		c.entries = append(c.entries, entryOp{create: op.create, f: dup(op.f)})
	}
	return c
}

// CrashState chooses what a power failure keeps of what was not durable.
// The zero value is the state Crash has always left: a file exists after
// the crash exactly when it was synced at least once and not removed (an
// entry needs no SyncDir), and holds what it held at its last Sync.
type CrashState struct {
	// Directory keeps the directory as a disk does: every entry operation
	// (Create, Remove) made before the last SyncDir survives, and of those
	// made since, the first Entries in the order they were made. A file
	// whose entry survives exists whether or not it was ever synced.
	Directory bool
	Entries   int
	// Pages, when set, is asked about every page of a file that differs
	// from what its last Sync left, by the file's name and the page's
	// index, and the page survives when it returns true. Every other byte
	// reads as at the last Sync, and a page beyond the file's synced end
	// that did not survive reads as zeros, or is not there when no later
	// page survived.
	Pages func(name string, page int64) bool
}

// Crash simulates a power failure, keeping of the state that was not
// durable what state chooses (at most one; none is the zero CrashState).
// Open handles remain usable but see the state after the crash.
func (fs *MemFS) Crash(state ...CrashState) {
	var st CrashState
	if len(state) > 0 {
		st = state[0]
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if st.Directory {
		// Undo, newest first, the entry operations beyond the prefix.
		for i := len(fs.entries) - 1; i >= max(st.Entries, 0); i-- {
			op := fs.entries[i]
			if op.create {
				delete(fs.files, op.f.name)
				op.f.removed = true
			} else {
				fs.files[op.f.name] = op.f
				op.f.removed = false
			}
		}
	}
	fs.entries = nil
	for name, f := range fs.files {
		if !f.synced && !st.Directory {
			delete(fs.files, name)
			f.removed = true
			continue
		}
		data := append([]byte(nil), f.durable...)
		for lo := int64(0); st.Pages != nil && lo < int64(len(f.data)); lo += PageSize {
			hi := min(lo+PageSize, int64(len(f.data)))
			synced := hi <= int64(len(f.durable)) && bytes.Equal(f.data[lo:hi], f.durable[lo:hi])
			if synced || !st.Pages(name, lo/PageSize) {
				continue
			}
			if int64(len(data)) < hi {
				data = append(data, make([]byte, hi-int64(len(data)))...)
			}
			copy(data[lo:hi], f.data[lo:hi])
		}
		f.data = data
	}
	fs.lastFile = nil
	fs.lastEnd = 0
}

// call is MemFS.call for an op on f. f.name never changes.
func (f *memFile) call(op Op, off int64, n int) error {
	return f.fs.call(Call{Op: op, Name: f.name, Off: off, Len: n})
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.call(OpRead, off, len(p)); err != nil {
		return 0, err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("read %q: negative offset", f.name)
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	f.fs.stats.PageReads += pagesSpanned(off, n)
	f.fs.stats.BytesRead += int64(n)
	f.fs.accountSeek(f, off, n, false)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.call(OpWrite, off, len(p)); err != nil {
		return 0, err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	killed := f.fs.killed()
	if off < 0 {
		return 0, fmt.Errorf("write %q: negative offset", f.name)
	}
	if f.removed {
		return 0, fmt.Errorf("write %q: file removed", f.name)
	}
	// Failure injection operates at page granularity: budget is how many of
	// the pages the write spans it may apply.
	pages := pagesSpanned(off, len(p))
	budget := pages
	if killed && f.fs.stats.Calls == f.fs.plan.KillAt {
		budget = pages / 2 // the kill point itself
	} else if killed {
		budget = 0
	} else if n := f.fs.plan.FailAfterPageWrites; n > 0 {
		budget = min(budget, max(n-f.fs.stats.PageWrites, 0))
	}
	writeLen := len(p)
	var injected error
	if budget < pages {
		injected = fmt.Errorf("write %q after %d pages: %w",
			f.name, f.fs.stats.PageWrites, ErrInjected)
		if !f.fs.plan.TornWrite || budget == 0 {
			return 0, injected
		}
		// Apply only the pages that fit in the budget.
		writeLen = min(int((off/PageSize+budget)*PageSize-off), len(p))
	}
	end := off + int64(writeLen)
	if end > int64(len(f.data)) {
		if end > int64(cap(f.data)) {
			// Amortized growth: doubling keeps long append streams
			// linear instead of quadratic.
			newCap := int64(cap(f.data)) * 2
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, f.data)
			f.data = grown
		} else {
			f.data = f.data[:end]
		}
	}
	n := copy(f.data[off:end], p[:writeLen])
	f.fs.stats.PageWrites += pagesSpanned(off, n)
	f.fs.stats.BytesWritten += int64(n)
	f.fs.accountSeek(f, off, n, true)
	if injected != nil {
		if f.fs.plan.TornWriteDurable && n > 0 {
			// Only the sectors this write actually touched reach the
			// platter; the gap between the old durable length and the
			// write offset (never-synced, never-written-now) reads as
			// zeros after a crash.
			if int64(len(f.durable)) < end {
				f.durable = append(f.durable, make([]byte, end-int64(len(f.durable)))...)
			}
			copy(f.durable[off:end], f.data[off:end])
			f.synced = true
		}
		return n, injected
	}
	return n, nil
}

// accountSeek updates the modeled disk time. Must hold fs.mu.
func (fs *MemFS) accountSeek(f *memFile, off int64, n int, write bool) {
	sequential := fs.lastFile == f && fs.lastEnd == off
	fs.stats.DiskNanos += fs.model.cost(n, sequential, write)
	fs.lastFile = f
	fs.lastEnd = off + int64(n)
}

func (f *memFile) Size() (int64, error) {
	if err := f.call(OpSize, 0, 0); err != nil {
		return 0, err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.data)), nil
}

// CreateSink returns a metering-only file: writes are accounted (pages,
// bytes, modeled disk time) but the data is discarded and reads return
// zeros. Simulation substrates use sinks for streams that are written for
// cost accounting and never read back (file data areas, modeled metadata
// trees whose authoritative copy is in memory). Sinks do not appear in
// List and do not participate in Crash.
func (fs *MemFS) CreateSink(name string) File {
	return &sinkFile{fs: fs, name: name}
}

// sinkFile meters I/O without retaining data.
type sinkFile struct {
	fs   *MemFS
	name string
	size int64
}

func (f *sinkFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= f.size {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > f.size-off {
		n = int(f.size - off)
	}
	for i := 0; i < n; i++ {
		p[i] = 0
	}
	f.fs.stats.PageReads += pagesSpanned(off, n)
	f.fs.stats.BytesRead += int64(n)
	f.fs.accountSeekSink(off, n, false)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *sinkFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("write %q: negative offset", f.name)
	}
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	f.fs.stats.PageWrites += pagesSpanned(off, len(p))
	f.fs.stats.BytesWritten += int64(len(p))
	f.fs.accountSeekSink(off, len(p), true)
	return len(p), nil
}

// accountSeekSink models disk time for a sink. Sinks share the device head
// with regular files; for simplicity each sink I/O is treated as
// sequential-if-contiguous within the sink only.
func (fs *MemFS) accountSeekSink(off int64, n int, write bool) {
	sequential := fs.lastFile == nil && fs.lastEnd == off
	fs.stats.DiskNanos += fs.model.cost(n, sequential, write)
	fs.lastFile = nil
	fs.lastEnd = off + int64(n)
}

func (f *sinkFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.size, nil
}

func (f *sinkFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.stats.Syncs++
	return nil
}

func (f *sinkFile) Close() error { return nil }

func (f *memFile) Sync() error {
	if err := f.call(OpSync, 0, 0); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.killed() {
		return fmt.Errorf("sync %q: %w", f.name, ErrInjected)
	}
	if f.removed {
		return fmt.Errorf("sync %q: file removed", f.name)
	}
	f.durable = append(f.durable[:0], f.data...)
	f.synced = true
	f.fs.stats.Syncs++
	return nil
}

func (f *memFile) Close() error { return f.call(OpClose, 0, 0) }
