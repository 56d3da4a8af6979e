package btrfssim

import (
	"errors"
	"fmt"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// Mode selects the back-reference configuration of Table 1.
type Mode int

// The three configurations compared in Table 1.
const (
	// ModeBase is btrfs with its back-reference support removed.
	ModeBase Mode = iota
	// ModeOriginal is btrfs's native design: inline back references in
	// the extent tree.
	ModeOriginal
	// ModeBacklog replaces the native back references with the Backlog
	// engine.
	ModeBacklog
)

func (m Mode) String() string {
	switch m {
	case ModeBase:
		return "Base"
	case ModeOriginal:
		return "Original"
	case ModeBacklog:
		return "Backlog"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// BlocksPerExtent is the maximum extent length; btrfs writes a small file
// in a single extent, so a 64 KB file is one 16-block extent.
const BlocksPerExtent = 1 << 20

// Config configures a simulated btrfs volume.
type Config struct {
	Mode Mode
	// OpsPerTransaction batches file operations per transaction commit
	// (the paper tests 2048 and 8192).
	OpsPerTransaction int
	// VFS to store everything in; nil creates a fresh MemFS.
	VFS *storage.MemFS
	// WriteShards is passed through to the Backlog engine in ModeBacklog
	// (0 = engine default of GOMAXPROCS).
	WriteShards int
	// Durability is passed through to the Backlog engine in ModeBacklog
	// (default wal.CheckpointOnly, the paper's configuration).
	Durability wal.Durability
	// Metrics, if non-nil, registers the Backlog engine's metrics in
	// ModeBacklog — btrfsbench's -debug-addr serves them live while a
	// benchmark runs. Successive FS instances re-register against the
	// same registry; the latest engine's gauges win.
	Metrics *obs.Registry
}

// FS is the simulated btrfs file layer.
type FS struct {
	cfg      Config
	vfs      *storage.MemFS
	tree     *Tree // extent tree (allocation records + native backrefs)
	fsTree   *Tree // fs tree (inode items); dirtied by create/delete
	data     storage.File
	fsyncLog storage.File
	logHead  int64

	eng *core.Engine // Backlog mode only
	cat *core.MemCatalog

	files     map[uint64]*file
	nextIno   uint64
	nextBlock uint64

	cp      uint64
	opCount int

	stats FSStats
}

type file struct {
	ino     uint64
	extents []extent
}

type extent struct {
	start  uint64 // physical start block
	length uint64 // blocks
	off    uint64 // logical block offset within the file
}

// FSStats counts file-layer activity.
type FSStats struct {
	FilesCreated uint64
	FilesDeleted uint64
	ExtentOps    uint64 // extent references added + removed
	Transactions uint64
	Fsyncs       uint64
}

// New creates a btrfs-like volume in the given mode.
func New(cfg Config) (*FS, error) {
	if cfg.OpsPerTransaction <= 0 {
		cfg.OpsPerTransaction = 2048
	}
	if cfg.VFS == nil {
		cfg.VFS = storage.NewMemFS()
	}
	tree, err := NewTree(cfg.VFS, cfg.Mode == ModeOriginal)
	if err != nil {
		return nil, err
	}
	fsTree, err := NewTree2(cfg.VFS, "fs-tree", false)
	if err != nil {
		return nil, err
	}
	// File data is written through the disk model but never read back:
	// a metering sink avoids holding gigabytes of zeros in memory.
	data := cfg.VFS.CreateSink("data-area")
	fsyncLog := cfg.VFS.CreateSink("fsync-log")
	fs := &FS{
		cfg:       cfg,
		vfs:       cfg.VFS,
		tree:      tree,
		fsTree:    fsTree,
		data:      data,
		fsyncLog:  fsyncLog,
		files:     map[uint64]*file{},
		nextIno:   2,
		nextBlock: 1,
		cp:        1,
	}
	if cfg.Mode == ModeBacklog {
		fs.cat = core.NewMemCatalog()
		eng, err := core.Open(core.Options{VFS: cfg.VFS, Catalog: fs.cat, WriteShards: cfg.WriteShards, Durability: cfg.Durability, Metrics: cfg.Metrics})
		if err != nil {
			return nil, err
		}
		fs.eng = eng
	}
	return fs, nil
}

// Close releases the Backlog engine (ModeBacklog; a no-op otherwise).
func (fs *FS) Close() error {
	if fs.eng == nil {
		return nil
	}
	return fs.eng.Close()
}

// Engine returns the Backlog engine (nil unless ModeBacklog).
func (fs *FS) Engine() *core.Engine { return fs.eng }

// Tree returns the metadata tree.
func (fs *FS) Tree() *Tree { return fs.tree }

// VFS returns the underlying storage (for I/O accounting).
func (fs *FS) VFS() *storage.MemFS { return fs.vfs }

// Stats returns file-layer counters.
func (fs *FS) Stats() FSStats { return fs.stats }

// allocExtent reserves a contiguous run of blocks. Allocation is a simple
// cursor (btrfs's allocator is far more clever, but allocation policy is
// orthogonal to back-reference cost).
func (fs *FS) allocExtent(blocks uint64) uint64 {
	start := fs.nextBlock
	fs.nextBlock += blocks
	return start
}

// writeData writes the extent's file data through the disk model; data
// transfer dominates the create benchmarks, exactly as on real hardware
// (a 64 KB file is 16 pages of data but only one back reference, which is
// why its Backlog overhead is tiny).
func (fs *FS) writeData(e extent) error {
	buf := make([]byte, e.length*storage.PageSize)
	_, err := fs.data.WriteAt(buf, int64(e.start)*storage.PageSize)
	return err
}

// addExtentRef registers one reference through whichever back-reference
// machinery the mode prescribes.
func (fs *FS) addExtentRef(e extent, ino uint64) {
	fs.stats.ExtentOps++
	fs.tree.AddRef(e.start, e.length, BackrefItem{Line: 0, Ino: ino, Off: e.off})
	if fs.eng != nil {
		fs.eng.AddRef(core.Ref{Block: e.start, Inode: ino, Offset: e.off, Line: 0, Length: e.length}, fs.cp)
	}
}

func (fs *FS) removeExtentRef(e extent, ino uint64) error {
	fs.stats.ExtentOps++
	if _, err := fs.tree.RemoveRef(e.start, BackrefItem{Line: 0, Ino: ino, Off: e.off}); err != nil {
		return err
	}
	if fs.eng != nil {
		fs.eng.RemoveRef(core.Ref{Block: e.start, Inode: ino, Offset: e.off, Line: 0, Length: e.length}, fs.cp)
	}
	return nil
}

// CreateFile creates a file of the given size in blocks, written as a
// single extent (btrfs writes small files in one extent, which is why the
// 64 KB create benchmark shows almost no Backlog overhead: one back
// reference amortizes over 16 blocks of data).
func (fs *FS) CreateFile(sizeBlocks int) (uint64, error) {
	if sizeBlocks <= 0 {
		return 0, errors.New("btrfssim: file size must be positive")
	}
	ino := fs.nextIno
	fs.nextIno++
	f := &file{ino: ino}
	e := extent{start: fs.allocExtent(uint64(sizeBlocks)), length: uint64(sizeBlocks), off: 0}
	f.extents = append(f.extents, e)
	fs.files[ino] = f
	if err := fs.writeData(e); err != nil {
		return 0, err
	}
	fs.fsTree.AddRef(inodeKey(ino), 1, BackrefItem{}) // inode item
	fs.addExtentRef(e, ino)
	fs.stats.FilesCreated++
	return ino, fs.opDone()
}

// AppendFile appends one extent of the given size.
func (fs *FS) AppendFile(ino uint64, sizeBlocks int) error {
	f, ok := fs.files[ino]
	if !ok {
		return fmt.Errorf("btrfssim: no inode %d", ino)
	}
	var off uint64
	if n := len(f.extents); n > 0 {
		off = f.extents[n-1].off + f.extents[n-1].length
	}
	e := extent{start: fs.allocExtent(uint64(sizeBlocks)), length: uint64(sizeBlocks), off: off}
	f.extents = append(f.extents, e)
	if err := fs.writeData(e); err != nil {
		return err
	}
	fs.fsTree.AddRef(dataItemKey(ino, e.off), 1, BackrefItem{}) // extent-data item
	fs.addExtentRef(e, ino)
	return fs.opDone()
}

// inodeKey and dataItemKey place a file's fs-tree items (inode item plus
// one extent-data item per appended extent) adjacently, as btrfs does.
func inodeKey(ino uint64) uint64 { return ino << 24 }

func dataItemKey(ino, off uint64) uint64 { return ino<<24 + off + 1 }

// DeleteFile removes a file, releasing all its extents and fs-tree items.
func (fs *FS) DeleteFile(ino uint64) error {
	f, ok := fs.files[ino]
	if !ok {
		return fmt.Errorf("btrfssim: no inode %d", ino)
	}
	for _, e := range f.extents {
		if err := fs.removeExtentRef(e, ino); err != nil {
			return err
		}
		if e.off > 0 {
			if _, err := fs.fsTree.RemoveRef(dataItemKey(ino, e.off), BackrefItem{}); err != nil {
				return err
			}
		}
	}
	if _, err := fs.fsTree.RemoveRef(inodeKey(ino), BackrefItem{}); err != nil {
		return err
	}
	delete(fs.files, ino)
	fs.stats.FilesDeleted++
	return fs.opDone()
}

// CloneFile adds references from a new inode to an existing file's extents
// (a reflink-style clone; exercises shared extents).
func (fs *FS) CloneFile(srcIno uint64) (uint64, error) {
	src, ok := fs.files[srcIno]
	if !ok {
		return 0, fmt.Errorf("btrfssim: no inode %d", srcIno)
	}
	ino := fs.nextIno
	fs.nextIno++
	f := &file{ino: ino, extents: append([]extent(nil), src.extents...)}
	fs.files[ino] = f
	fs.fsTree.AddRef(inodeKey(ino), 1, BackrefItem{})
	for _, e := range f.extents {
		fs.addExtentRef(e, ino)
		if e.off > 0 {
			fs.fsTree.AddRef(dataItemKey(ino, e.off), 1, BackrefItem{})
		}
	}
	fs.stats.FilesCreated++
	return ino, fs.opDone()
}

// opDone counts a file operation and commits a transaction when the batch
// is full.
func (fs *FS) opDone() error {
	fs.opCount++
	if fs.opCount >= fs.cfg.OpsPerTransaction {
		return fs.Sync()
	}
	return nil
}

// Fsync provides fsync durability the way btrfs does: the file's data is
// flushed and the pending metadata operations are appended to the fsync
// log tree, WITHOUT forcing a full transaction commit. Back-reference
// maintenance (native or Backlog) therefore rides the periodic transaction
// commits regardless of fsync frequency — which is why the paper's
// fsync-heavy /var/mail workload shows only ~1.8% Backlog overhead.
func (fs *FS) Fsync() error {
	if err := fs.data.Sync(); err != nil {
		return err
	}
	// One log page records the batched metadata of this fsync.
	var page [storage.PageSize]byte
	if _, err := fs.fsyncLog.WriteAt(page[:], fs.logHead); err != nil {
		return err
	}
	fs.logHead += storage.PageSize
	if err := fs.fsyncLog.Sync(); err != nil {
		return err
	}
	fs.stats.Fsyncs++
	return nil
}

// Sync forces a transaction commit: data first, then both metadata trees
// copy-on-write, then Backlog's checkpoint if configured.
func (fs *FS) Sync() error {
	if fs.opCount == 0 {
		return nil
	}
	fs.opCount = 0
	if err := fs.data.Sync(); err != nil {
		return err
	}
	if err := fs.tree.Commit(); err != nil {
		return err
	}
	if err := fs.fsTree.Commit(); err != nil {
		return err
	}
	if fs.eng != nil {
		if err := fs.eng.Checkpoint(fs.cp); err != nil {
			return err
		}
	}
	fs.cp++
	fs.stats.Transactions++
	return nil
}

// FileCount returns the number of live files.
func (fs *FS) FileCount() int { return len(fs.files) }

// Files returns all live inode numbers (unsorted).
func (fs *FS) Files() []uint64 {
	out := make([]uint64, 0, len(fs.files))
	for ino := range fs.files {
		out = append(out, ino)
	}
	return out
}
