package wal

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/backlogfs/backlog/internal/storage"
)

// Segment files are named wal-<16-digit index>.seg and begin with a
// 16-byte header: an 8-byte magic, a 4-byte format version, and the low
// 4 bytes of the segment index (a consistency cross-check against the
// name). Frames follow back to back, their bodies encoded as the version
// says (see the frame layout in record.go). The names deliberately share no
// suffix or prefix with lsm's run ("*.run") and deletion-vector ("dv.*")
// files, so lsm orphan collection never touches them.
const (
	segPrefix     = "wal-"
	segSuffix     = ".seg"
	segHeaderSize = 16
	segMagic      = "BKLGWAL\x01"
	// segVersion is the version every new segment is written in. Segments
	// of the version before it, whose frames have 8-byte headers and
	// start from an empty elision state each, are only ever read: a tail
	// left by an earlier binary replays and is retired by the first
	// checkpoint. That is as far back as this binary reads; an older
	// segment is refused by name (see readSegment).
	segVersion     = 6
	oldestReadable = 5
)

// upgraders names, for each retired version a store may still hold, the
// binary that replays it: opened once there and checkpointed, the store's
// log is retired.
var upgraders = map[byte]string{3: "commit 0ea923b or earlier", 4: "commit 8d5575c"}

// segHeaderVersion returns the format version a segment's leading bytes
// name, or false when they are not a segment header at all: too short or
// the wrong magic. Whether this binary reads the version is the caller's
// question (readable).
func segHeaderVersion(b []byte) (byte, bool) {
	if len(b) < segHeaderSize || string(b[:8]) != segMagic {
		return 0, false
	}
	return b[8], true
}

// readable reports whether this binary's decoder reads a format version.
func readable(version byte) bool { return version >= oldestReadable && version <= segVersion }

func segmentName(index uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, index, segSuffix)
}

// parseSegmentName extracts the index of a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	digits := name[len(segPrefix) : len(name)-len(segSuffix)]
	if len(digits) != 16 {
		return 0, false
	}
	idx, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

func encodeSegHeader(index uint64) []byte {
	h := make([]byte, segHeaderSize)
	copy(h, segMagic)
	h[8] = segVersion
	h[12] = byte(index >> 24)
	h[13] = byte(index >> 16)
	h[14] = byte(index >> 8)
	h[15] = byte(index)
	return h
}

// listSegments returns the indices of all segment files in vfs, ascending.
func listSegments(vfs storage.VFS) ([]uint64, error) {
	names, err := vfs.List()
	if err != nil {
		return nil, err
	}
	var idx []uint64
	for _, name := range names {
		if i, ok := parseSegmentName(name); ok {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return idx, nil
}

// ErrCorrupt reports damage recovery cannot read past: an unreadable frame
// or header anywhere but the torn tail a crash legitimately leaves, a batch
// that passes its checksum and still does not decode, or a segment in a
// format version this binary does not read.
var ErrCorrupt = errors.New("wal: log is corrupt")

// Recovered is the result of scanning the on-disk log.
type Recovered struct {
	// Records lists every durable record after the last checkpoint mark,
	// in append order.
	Records []Record
	// Cuts lists the cut marks interleaved with Records: Cuts[i].Index is
	// the number of records that precede the mark. Every record before a
	// cut was applied to the write stores before that cut's checkpoint
	// froze them, so once ANY checkpoint with that (or a later) CP has
	// committed, those records are durable in the read store regardless
	// of their own CP tags — the engine drops everything before the last
	// cut whose CP the manifest covers, closing the window in which a
	// record tagged past the committing CP (an update racing the flush)
	// would otherwise replay on top of the runs that already hold it.
	Cuts []CutMark
	// MarkCP is the CP of the last checkpoint mark seen (0 if none).
	MarkCP uint64
	// Found reports whether any segment files existed at all.
	Found bool
}

// CutMark locates one cut mark in a Recovered record stream.
type CutMark struct {
	// Index is the number of Records preceding the mark.
	Index int
	// CP is the consistency point the cutting checkpoint was freezing.
	CP uint64
}

// tear locates a torn tail found during recovery: segment index, the byte
// offset of the first unreadable frame, and the segment's format version,
// in whose framing the seal is written.
type tear struct {
	found   bool
	index   uint64
	offset  int64
	version byte
}

// Recover scans the segments in vfs without opening a log for writing. A
// torn or truncated tail of the final segment ends the scan cleanly (the
// expected state after a crash mid-append), and so does one followed only
// by segments whose header never became durable; damage anywhere else is
// an error.
func Recover(vfs storage.VFS) (Recovered, error) {
	rec, _, _, err := recoverLog(storage.TagVFS(vfs, storage.SrcRecovery))
	return rec, err
}

// recoverLog is Recover plus the tears Open must seal before appending
// past them, oldest first, and the scanned segment indices (so Open need
// not list the directory again).
func recoverLog(vfs storage.VFS) (Recovered, []tear, []uint64, error) {
	segs, err := listSegments(vfs)
	if err != nil {
		return Recovered{}, nil, nil, err
	}
	rec := Recovered{Found: len(segs) > 0}
	for i, idx := range segs {
		final := i == len(segs)-1
		var tr tear
		torn, err := readSegment(vfs, idx, &rec, &tr)
		if err != nil {
			return rec, nil, segs, err
		}
		if !torn {
			continue
		}
		if final {
			return rec, []tear{tr}, segs, nil
		}
		// A torn tail in a non-final segment is normally corruption. The
		// segments after it with no durable header hold nothing: a creation
		// a crash cut short, the segment a checkpoint made ahead of its cut
		// (Log.PrepareCut) on a file system that made its empty directory
		// entry durable, or a retired segment whose removal a crash undid
		// before its header was ever synced.
		tears := []tear{tr}
		next := -1
		for j, later := range segs[i+1:] {
			ok, err := segmentHasHeader(vfs, later)
			if err != nil {
				return rec, nil, segs, err
			}
			if ok {
				next = i + 1 + j
				break
			}
			tears = append(tears, tear{found: true, index: later})
		}
		// When none has a header, the log ends at this tear, and Open seals
		// it first, then each of them as an empty segment.
		if next < 0 {
			return rec, tears, segs, nil
		}
		// When the first that has one opens with a checkpoint or cut mark,
		// the tear is a flush failure that preceded that Cut (which is the
		// only way appends resume after a failed flush), everything before
		// the tear is intact, and everything after it was never
		// acknowledged. Records of such a segment replay subject to the
		// usual CP filter.
		ok, err := segmentStartsWithMark(vfs, segs[next])
		if err != nil {
			return rec, nil, segs, err
		}
		if !ok {
			return rec, nil, segs, fmt.Errorf("%w: segment %s is torn mid-log", ErrCorrupt, segmentName(idx))
		}
	}
	return rec, nil, segs, nil
}

// segmentHasHeader reports whether a segment's leading bytes are a segment
// header, of whatever version.
func segmentHasHeader(vfs storage.VFS, index uint64) (bool, error) {
	f, err := vfs.Open(segmentName(index))
	if err != nil {
		return false, err
	}
	defer f.Close()
	buf := make([]byte, segHeaderSize)
	n, err := f.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return false, err
	}
	_, ok := segHeaderVersion(buf[:n])
	return ok, nil
}

// segmentStartsWithMark reports whether a segment opens with a lone cut
// mark — what heads a segment opened by Cut — or a lone checkpoint mark,
// which the format still defines, and therefore with what may
// legitimately follow a retired (possibly torn) predecessor.
func segmentStartsWithMark(vfs storage.VFS, index uint64) (bool, error) {
	f, err := vfs.Open(segmentName(index))
	if err != nil {
		return false, err
	}
	defer f.Close()
	buf := make([]byte, segHeaderSize+maxMarkFrame)
	n, err := f.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return false, err
	}
	version, ok := segHeaderVersion(buf[:n])
	if !ok {
		return false, nil
	}
	// A segment's first frame starts from an empty elision state in every
	// version; of a version this binary does not read, readSegment will
	// say so when it gets there.
	body, _, derr := splitFrame(buf[segHeaderSize:n], version)
	if derr != nil {
		return false, nil
	}
	d := readBatch(body, batchState{})
	r, ok := d.next()
	return ok && !d.more() && (r.Op == OpCheckpoint || r.Op == OpCut), nil
}

// add folds one decoded record into the recovery result and reports
// whether it ends its segment.
func (rec *Recovered) add(r Record) (endOfSegment bool) {
	switch r.Op {
	case OpSegmentEnd:
		// The tail past this mark was torn in a previous incarnation and
		// sealed; ignore it.
		return true
	case OpCheckpoint:
		// Everything logged before a committed consistency point is
		// already durable in the read store; drop it.
		rec.Records = rec.Records[:0]
		rec.Cuts = rec.Cuts[:0]
		rec.MarkCP = r.CP
	case OpCut:
		// A checkpoint froze the write stores here; whether it went on to
		// commit is not knowable from the log alone (a committed
		// checkpoint normally retires everything before the cut, but a
		// crash can beat the retirement). Keep every record and report the
		// boundary: the engine compares the cut's CP against the manifest
		// to decide.
		rec.Cuts = append(rec.Cuts, CutMark{Index: len(rec.Records), CP: r.CP})
	default:
		rec.Records = append(rec.Records, r)
	}
	return false
}

// readSegment parses one segment into rec. It reports torn=true when the
// segment ends in an unreadable frame, and the tear position in tr (so
// Open can seal it); whether a tear in a non-final segment is tolerable is
// the caller's decision. A
// torn frame costs the flush batch it framed — none of whose records was
// acknowledged durable, since the batch is what a flush writes and syncs.
func readSegment(vfs storage.VFS, index uint64, rec *Recovered, tr *tear) (torn bool, err error) {
	name := segmentName(index)
	f, err := vfs.Open(name)
	if err != nil {
		return false, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return false, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		return false, fmt.Errorf("wal: reading %s: %w", name, err)
	}
	version, ok := segHeaderVersion(buf)
	if !ok {
		// A header cut short by a crash during segment creation, or never
		// synced while the directory kept the entry: the segment holds
		// nothing durable. It is a tear at 0, which recoverLog tolerates
		// wherever it tolerates a tear.
		*tr = tear{found: true, index: index, offset: 0}
		return true, nil
	}
	if !readable(version) {
		// An intact header of another format: records this binary cannot
		// replay, in any position. Never sealed over as a torn creation —
		// that would silently discard them. A newer one is no damage.
		kind := ErrCorrupt
		if version > segVersion {
			kind = storage.ErrNewerFormat
		}
		err := fmt.Errorf("%w: segment %s is in format version %d; this binary reads versions %d to %d",
			kind, name, version, oldestReadable, segVersion)
		if upgrader, ok := upgraders[version]; ok {
			err = fmt.Errorf("%w: open the store once with a binary that reads it (%s) and run Checkpoint, as internal/core/testdata/upgrade does", err, upgrader)
		}
		return false, err
	}
	if got := uint64(buf[12])<<24 | uint64(buf[13])<<16 | uint64(buf[14])<<8 | uint64(buf[15]); got != index&0xffffffff {
		// An intact header whose embedded index disagrees with the file
		// name: a segment copied or restored under the wrong name. Never
		// a torn creation (those fail the checks above), so never sealed
		// over — replaying it in the wrong order could corrupt recovery.
		return false, fmt.Errorf("%w: segment %s header claims index %d (restored under the wrong name?)", ErrCorrupt, name, got)
	}
	// A tear ends the scan: everything before it is intact. It is reported,
	// so that Open can seal it with a segment-end mark before the segment
	// stops being the log's last.
	off, err := walkFrames(buf[segHeaderSize:], version, func(_ int, r Record) bool { return rec.add(r) })
	switch {
	case errors.Is(err, errTorn):
		*tr = tear{found: true, index: index, offset: int64(segHeaderSize + off), version: version}
		return true, nil
	case err != nil:
		return false, fmt.Errorf("%w: segment %s: the batch at offset %d passes its checksum but does not decode", ErrCorrupt, name, segHeaderSize+off)
	}
	return false, nil
}

// sealTear stamps a durable segment-end mark over a torn tail, keeping
// the tear terminal once the segment is no longer the final one. The mark
// is framed in the segment's own version, since the frame header is not the
// same in every one. A tear at offset 0 means the header itself never became
// durable; the whole segment is rewritten as an empty sealed one of the
// current version.
func sealTear(vfs storage.VFS, tr tear) error {
	name := segmentName(tr.index)
	f, err := vfs.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	var buf []byte
	version := tr.version
	if tr.offset == 0 {
		buf, version = encodeSegHeader(tr.index), segVersion
	}
	buf = appendFrame(buf, version, &batchState{}, Record{Op: OpSegmentEnd})
	if _, err := f.WriteAt(buf, tr.offset); err != nil {
		return fmt.Errorf("wal: sealing torn segment %s: %w", name, err)
	}
	// The seal must be durable in every mode: an unsynced seal could
	// vanish in a crash after later segments became durable, reviving the
	// "torn tail in a non-final segment" corruption error.
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing sealed segment %s: %w", name, err)
	}
	return nil
}

// RemoveAll deletes every segment file in vfs. The engine uses it to
// retire leftover segments when running in CheckpointOnly mode after a
// Buffered or Sync incarnation.
func RemoveAll(vfs storage.VFS) error {
	segs, err := listSegments(vfs)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if err := vfs.Remove(segmentName(idx)); err != nil && !errors.Is(err, storage.ErrNotExist) {
			return err
		}
	}
	return nil
}
