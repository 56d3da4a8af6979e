package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// DirFS is a VFS backed by a directory on the real file system. It meters
// nothing: Stats returns zeros, and a store's I/O is counted by the
// attributed VFS that wraps it (Attributed). DirFS is what
// cmd/backlogctl uses for persistent databases.
type DirFS struct {
	dir string
}

// NewDirFS returns a VFS rooted at dir, creating the directory if needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir %q: %w", dir, err)
	}
	return &DirFS{dir: dir}, nil
}

// Dir returns the root directory.
func (d *DirFS) Dir() string { return d.dir }

func (d *DirFS) path(name string) string { return filepath.Join(d.dir, name) }

// SyncDir implements VFS: it fsyncs the directory itself, making the
// current set of file entries durable. Without it a power failure can lose
// the directory entry of a fully-fsynced file. A commit calls it after the
// file that carries it is synced (one fsync covers every file created since
// the last commit); the WAL calls it once per new segment, whose entry must be
// durable before appends into it are acknowledged. Filesystems that reject
// fsync on a directory fd (many FUSE/network mounts: EINVAL, ENOTSUP,
// ENOTTY) are excused — hard-failing every commit there would be worse than
// their genuinely weaker entry durability — but real I/O errors
// propagate, since swallowing an EIO would acknowledge durability the
// disk just refused to provide.
func (d *DirFS) SyncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		if errors.Is(err, errors.ErrUnsupported) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTTY) {
			return nil
		}
		return err
	}
	return nil
}

// Create implements VFS.
func (d *DirFS) Create(name string) (File, error) {
	f, err := os.OpenFile(d.path(name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("create %q: %w", name, ErrExist)
		}
		return nil, err
	}
	return &dirFile{f: f}, nil
}

// Open implements VFS.
func (d *DirFS) Open(name string) (File, error) {
	f, err := os.OpenFile(d.path(name), os.O_RDWR, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("open %q: %w", name, ErrNotExist)
		}
		return nil, err
	}
	return &dirFile{f: f}, nil
}

// Remove implements VFS.
func (d *DirFS) Remove(name string) error {
	if err := os.Remove(d.path(name)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("remove %q: %w", name, ErrNotExist)
		}
		return err
	}
	// No directory fsync: a removal entry lost to a crash merely
	// resurrects a file that recovery already tolerates (lsm collects
	// orphan runs; WAL replay skips checkpoint-covered records).
	return nil
}

// List implements VFS.
func (d *DirFS) List() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Stats implements VFS: DirFS meters nothing, so it returns zeros.
func (d *DirFS) Stats() Stats { return Stats{} }

type dirFile struct {
	f *os.File
}

func (f *dirFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

func (f *dirFile) WriteAt(p []byte, off int64) (int, error) { return f.f.WriteAt(p, off) }

func (f *dirFile) Size() (int64, error) {
	info, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (f *dirFile) Sync() error { return f.f.Sync() }

func (f *dirFile) Close() error { return f.f.Close() }
