package storage

import (
	"errors"
	"io"
)

// Extent is a byte range of a file.
type Extent struct {
	Off, Len int64
}

// errReadOnly is what a write or sync through an Extents view returns.
var errReadOnly = errors.New("storage: extents view is read-only")

// Extents returns a read-only view of f that reads the given extents of f
// back to back as one file: offset 0 of the view is exts[0].Off of f, and
// the view is as long as the extents together. Several runs sharing one
// file each read theirs through one: a run's pages and its Bloom filter are
// two extents, which the view presents as the run's own layout, filter
// right after the pages. The view does not own f: Close releases nothing,
// and WriteAt and Sync fail.
func Extents(f File, exts ...Extent) File {
	v := &extentsFile{f: f, exts: exts}
	for _, e := range exts {
		v.size += e.Len
	}
	return v
}

type extentsFile struct {
	f    File
	exts []Extent
	size int64
}

// ReadAt reads from every extent the range [off, off+len(p)) overlaps, one
// ReadAt of f each.
func (v *extentsFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("storage: negative offset")
	}
	n := 0
	base := int64(0) // view offset of the current extent
	for _, e := range v.exts {
		if n == len(p) {
			break
		}
		at := off + int64(n) - base // offset within e
		if at < e.Len {
			want := min(int64(len(p)-n), e.Len-at)
			got, err := v.f.ReadAt(p[n:n+int(want)], e.Off+at)
			n += got
			if err != nil && (err != io.EOF || int64(got) < want) {
				return n, err
			}
		}
		base += e.Len
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (v *extentsFile) WriteAt([]byte, int64) (int, error) { return 0, errReadOnly }
func (v *extentsFile) Size() (int64, error)               { return v.size, nil }
func (v *extentsFile) Sync() error                        { return errReadOnly }
func (v *extentsFile) Close() error                       { return nil }
