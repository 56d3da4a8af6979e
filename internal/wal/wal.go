// Package wal implements Backlog's group-committed write-ahead log.
//
// The paper makes back-reference updates durable only at consistency
// points: everything buffered in the write stores since the last
// checkpoint is lost on a crash, exactly like file-system state past the
// last consistency point (Section 5.4 assumes the file system's own
// journal replays the lost operations). This package closes that gap for
// deployments without such a journal: reference updates are appended to a
// checksummed log before they enter the write stores, and the engine
// replays the log tail on open.
//
// # Record format
//
// The log is framed per flush batch, not per record — the batch being
// whatever one device write carries: a group commit in Sync mode, the
// coalesced 64 KiB buffer in Buffered mode, a lone mark written by Cut or
// by recovery's tear seal. A frame is the body's length as a uvarint, a
// 4-byte CRC-32C of the body, and the body: the batch's records back to
// back, so a batch under 128 bytes pays a 5-byte header. A record needs no
// length or checksum of its own. It is an op byte — AddRef, RemoveRef,
// Relocate, or a Checkpoint, Cut or SegmentEnd mark — followed by the op's
// fields as uvarints (AddRef/RemoveRef: block, inode, offset, line, length,
// cp; Relocate: block, new block, cp; Checkpoint and Cut: cp), so the op
// says where the record ends. The op byte's low three bits are the op, and
// its high bits drop fields that hold their usual value: 0x80 a Line of 0,
// 0x40 a Length of 1, 0x20 a CP equal to the previous record's, and 0x10 an
// inode and offset that continue the previous update of the same op — its
// inode, at its offset + length — which is what the updates of a file
// written front to back look like. A block update, an AddRef or RemoveRef
// with Line 0 and Length 1 — every reference a file system's block pointer
// makes — packs that byte instead: 0x08 set, the three bits below it name
// AddRef or RemoveRef, continuing or not, with the previous record's CP or
// not, and the four high bits hold the block's low four bits, so that the
// block's uvarint carries only block >> 4. A block update is its packed
// byte, the rest of its block, and its inode and offset unless it continues
// its file: on an 18-bit block 3 bytes.
//
// "Previous" reaches back across frames to the start of the segment: the
// elision state carries from one frame to the next, and only a segment's
// first frame starts from nothing, so a Sync group commit's first record
// elides what the commit before it set. A record with no predecessor in its
// segment to take a field from spells it out. The writer keeps the rule by
// starting a batch that will open a new segment — one begun while the active
// segment is full, which its flush rotates first, or the first after a Cut
// or Open — from an empty state. Measured on bench/ (seed 1,
// wal.bytes_per_record): the log costs 4.18 bytes per update on mixed
// (Buffered; 5.03 in version 4, 6.8 in version 3) and 8.3 on durable
// (Sync, two clients, 1.9 records per group commit; 10.8 in version 5,
// 11.7 in version 4).
//
// That is segment format version 6, the only one written. Version 5 is the
// same records under an 8-byte frame header (a 4-byte big-endian length
// and the CRC), each frame starting from an empty state. The reader takes
// both, by its header's version byte, so a tail left by an earlier binary
// still replays and is retired by the first checkpoint. Older versions are
// refused by name, with the binary that replays them: version 4 commit
// 8d5575c, version 3 commit 0ea923b or earlier. The log is a sequence of
// segments (wal-<index>.seg, rotated at Options.SegmentBytes) so that
// truncation after a checkpoint is file deletion, not in-place rewriting.
//
// What a crash mid-write costs is the batch being written: recovery stops
// at the first incomplete or checksum-failing frame of the final segment —
// segments after it whose header never became durable, a creation cut
// short, the segment made ahead for a cut or a retired segment whose removal
// a crash undid, hold nothing and do not count — so what survives is a
// prefix of append order at batch granularity. In Sync mode no record of a torn batch was acknowledged — the batch is what
// the flush was still writing and syncing. In Buffered mode a torn batch is
// up to 64 KiB of the newest records, the same bytes the mode already
// keeps in process memory and promises nothing about. A batch that passes
// its checksum and still does not decode is not a tear: recovery fails
// with ErrCorrupt rather than silently dropping a suffix.
//
// # Group commit (Sync)
//
// Append is safe for concurrent use and group-commits: the first appender
// to find no flush in flight becomes the leader, takes the entire pending
// buffer, and writes it with one WriteAt plus one Sync while later
// appenders buffer behind it and wait on the flush notification. When the
// leader finishes it wakes the waiters, and one of them leads the next
// flush.
//
// Left at that, W closed-loop appenders — each sends its next record when
// the last is acknowledged, which is what a file system's threads do — get
// W/2 records per fsync, not W. The appenders a flush has just acknowledged
// are back with their next records a few microseconds after the next leader
// has left with whatever had queued behind that flush, so batches alternate
// between the two halves and every acknowledgement waits out about two
// fsyncs. The device is busy either way, so records per fsync is the log's
// throughput. The leader therefore gathers before it takes the buffer: every
// flush notes how many appenders it leaves in the loop — the records it
// acknowledged plus those already pending behind it — and a leader that
// finds fewer records pending than that holds the flush slot, arrivals
// buffering behind it as they do behind a write, and yields the processor
// until they are all in or a bound has passed. A closed-loop sweep on a
// real directory (BenchmarkSyncAppendSweep: DirFS, 3 000 appends,
// GOMAXPROCS=2, medians of ten alternating runs; an fsync there takes about
// 0.17 ms), the last pair of rows being W times the wall time per append
// over the lone appender's — how many fsyncs an acknowledgement waits out:
//
//	appenders                    1      2      4      8     32
//	records per fsync, before  1.00   1.50   2.50   4.49   16.4
//	records per fsync, gather  1.00   2.00   4.00   7.98   31.4
//	appends per ms, before      6.1    8.3   13.7   23.4     91
//	appends per ms, gather      5.6   11.6   24.1   48.4    185
//	ack over fsync, before     1.00   1.47   1.78   2.08   2.13
//	ack over fsync, gather     1.00   0.97   0.93   0.93   0.97
//
// The bound is there because a counted appender may never come: it has
// finished, it has stopped to think, it is parked behind a checkpoint's
// pending exclusive lock, or the leader itself appends under that lock
// (RelocateBlock) and nobody can. It is a quarter of the log's own running
// flush time and never more than a millisecond — an acknowledged appender is
// back within microseconds or not for a long while, whatever the device, so
// a wait that the flush dwarfs catches the first kind and costs little on
// the second. An expired gather also makes the log pass up the next 1, 2, 4
// ... 32 occasions to gather, and one that fills resets that: appenders that
// think between updates cost their peers a vanishing share of a flush. A
// lone appender never waits — the flush it comes back from left one in the
// loop, and its record is that one.
//
// # Coalesced writes (Buffered)
//
// A Buffered log promises no durability before the next clean Close, so
// it does not pay a device write per record either: Append copies the
// record into the pending buffer and returns. The same single-flight leader
// hands the buffer to the OS with one WriteAt when it reaches
// bufferedFlushBytes (64 KiB), when the active segment is full, in Cut,
// and in Close — the log's device cost is proportional to bytes, not to
// updates. Up to 64 KiB of the newest acknowledged records therefore live
// in process memory, not in the OS cache: a clean Close preserves them, a
// killed process loses them just as a power failure always could. What
// survives is always a prefix of append order: writes go out in order, a
// full segment is fsynced before its successor is created, and no segment
// is fsynced before its live predecessors (see syncThrough).
//
// # Cut
//
// A checkpoint cuts the log at the instant it freezes the write stores,
// while the engine holds every updater out, so the cut does as little as
// it can. The segment it opens is made ahead (PrepareCut, before the
// freeze): created, its directory entry synced, empty. Cut itself first
// writes the pending buffer into the outgoing segment — in Buffered mode
// those records were acknowledged, and until the checkpoint commits the log
// is their only copy — then writes the fresh segment's header and a cut mark
// together in one WriteAt. Only when the log is in a failed state (a flush
// error is pending) is the buffer dropped instead: those appends were
// reported failed, and the engine tracks their durability itself. In Sync
// mode the mark must be durable before the checkpoint commits; the engine
// calls SyncCut for that while it flushes, and any append acknowledged past
// the mark has made it so already. A rotation that comes before the Cut
// opens the prepared segment instead, and the Cut then creates its own;
// Close removes a prepared segment nothing opened.
package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// Durability selects when reference updates become crash-durable.
type Durability int

const (
	// CheckpointOnly disables the log: updates are durable only at
	// consistency points, the paper's behavior. Buffered references are
	// discarded on crash or Close.
	CheckpointOnly Durability = iota
	// Buffered appends every update to the log without fsync, handing
	// records to the OS 64 KiB at a time. A clean Close preserves
	// everything; a crash (of the process or the machine) may lose the
	// newest updates, but what survives is a prefix of what was appended
	// and never corrupts the database.
	Buffered
	// Sync group-commits every append: Append returns only after the
	// record (batched with its concurrent peers) is fsynced. An
	// acknowledged update survives any crash.
	Sync
)

func (d Durability) String() string {
	switch d {
	case CheckpointOnly:
		return "checkpoint-only"
	case Buffered:
		return "buffered"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("Durability(%d)", int(d))
	}
}

// ParseDurability parses a -durability flag value.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "checkpoint", "checkpoint-only", "checkpointonly":
		return CheckpointOnly, nil
	case "buffered":
		return Buffered, nil
	case "sync":
		return Sync, nil
	default:
		return 0, fmt.Errorf("wal: unknown durability %q (want checkpoint-only, buffered, or sync)", s)
	}
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// DefaultSegmentBytes is the default segment rotation threshold.
const DefaultSegmentBytes = 4 << 20

// bufferedFlushBytes is how many bytes of records a Buffered log collects
// in memory before one WriteAt hands them to the OS as one batch: large
// enough that the log costs a device write per thirteen thousand updates or
// so, not per update, small enough that a killed process loses a bounded,
// small tail.
const bufferedFlushBytes = 64 << 10

// The gather: a Sync flush leader that knows more appenders are in the loop
// than have records pending holds the flush slot for them, for at most
// 1/gatherShare of the log's running flush time and never longer than
// gatherCeiling — an acknowledged appender is back within microseconds or is
// not coming, whatever the device. A gather that expires makes the log skip
// the next 1, 2, 4, ... gatherMaxSkip occasions; one that fills resets that.
// See "Group commit (Sync)" in the package doc.
const (
	gatherShare   = 4
	gatherCeiling = time.Millisecond
	gatherMaxSkip = 32
)

// Options configures Open.
type Options struct {
	// Durability must be Buffered or Sync; CheckpointOnly callers should
	// not open a log at all (use Recover/RemoveAll).
	Durability Durability
	// SegmentBytes rotates the active segment once it grows past this
	// size (DefaultSegmentBytes if zero).
	SegmentBytes int64

	// Optional observability hooks; nil histograms record nothing and add
	// no timing overhead. AppendHist sees each record's append latency in
	// nanoseconds: in Sync mode enqueue to fsynced, including time spent
	// waiting behind the group-commit leader; in Buffered mode the time to
	// copy the record into the pending buffer, plus, for the one append in
	// a few thousand that finds the buffer full, the write it leads or
	// waits out. FlushHist sees each physical flush's I/O duration (one
	// WriteAt plus, in Sync mode, one fsync). BatchHist sees the number of
	// records each flush covered.
	AppendHist *obs.Histogram
	FlushHist  *obs.Histogram
	BatchHist  *obs.Histogram
}

// Stats counts log activity. All counters are cumulative.
type Stats struct {
	Appends   uint64 // records appended
	Batches   uint64 // physical flushes (group commits)
	Segments  uint64 // segments opened for appending, including the initial one
	Truncates uint64 // checkpoint truncations (successful Retires)
	// Bytes counts what the device took as log content: every batch frame
	// (header included) and every cut mark, but not the 16-byte segment
	// headers, though a cut mark shares its write with one. A failed write
	// counts the prefix it applied past any header, as the I/O attribution
	// does. Bytes ÷ Appends is the log's device cost per update.
	Bytes int64
	// Gathers counts the Sync flushes whose leader held the flush slot for
	// appenders it knew were in the loop; GathersFilled those it left with
	// every record it waited for (the rest ran into the bound).
	Gathers       uint64
	GathersFilled uint64
}

// Log is an append-only segmented log. All methods are safe for
// concurrent use.
type Log struct {
	vfs      storage.VFS
	syncEach bool
	segBytes int64

	mu   sync.Mutex
	cond *sync.Cond
	// seq numbers appended records; done is the highest seq whose flush
	// completed. Append waits until done covers its own seq.
	seq, done uint64
	// pending is the batch being collected: frameReserve reserved bytes
	// (once it holds a record; empty otherwise), then the records accepted
	// but not yet handed to the OS. The flush leader swaps it with spare,
	// which it owns for the duration of its I/O — sealing the header
	// included — so steady state allocates nothing.
	pending, spare []byte
	// pendingState is the elision state after pending's last record: that
	// of the segment the batch lands in, which carries from batch to batch
	// (see append). pendingRecs is pending's record count, which
	// flushLocked reports as the batch size it covered. The count is written
	// under l.mu like the rest; it is atomic for the one reader without it,
	// the gathering leader: polling under the mutex, it would keep taking it
	// from the very appenders it is waiting for.
	pendingState batchState
	pendingRecs  atomic.Int64
	flushing     bool
	closed       bool
	err          error // sticky flush error; cleared by Cut
	// The Sync gather (see gatherLocked). gatherTarget is how many appenders
	// the last flush left in the loop: the records it acknowledged, whose
	// owners are on their way back, plus those already pending behind it.
	// flushTime is the running mean of a flush's I/O time, which bounds the
	// wait; gatherSkip counts the gathers still to be skipped after one
	// expired and gatherBackoff is how many that was.
	gatherTarget              int64
	flushTime                 time.Duration
	gatherSkip, gatherBackoff int

	seg     storage.File
	segSize int64
	// segIndex is the highest segment index handed out: the active
	// segment's, or a prepared one's, or one whose creation failed — an
	// index is burned either way, since Create is exclusive and a failed
	// segment's best-effort Remove may itself fail.
	segIndex uint64
	// prepared is the segment PrepareCut made ahead — created, directory
	// entry durable, empty — and preparedIndex its index; the next Cut or
	// rotation opens it. nil when there is none.
	prepared      storage.File
	preparedIndex uint64
	// markDirty notes, in Sync mode, that the last Cut's mark heads the
	// active segment and no fsync has covered it yet: SyncCut, a flush, or
	// a rotation away from the segment clears it.
	markDirty bool
	names     []string // live segment names, oldest first, active last
	// synced counts the leading names a Buffered log has fsynced itself;
	// the rest (recovered segments, segments a Cut left behind) must be
	// synced before any later one is. See syncThrough.
	synced int

	appendHist *obs.Histogram
	flushHist  *obs.Histogram
	batchHist  *obs.Histogram

	stats Stats
}

// Open recovers the existing log in vfs (see Recover) and opens a fresh
// active segment for appending. Appends never extend a recovered segment:
// its tail may be torn, and writing past a torn frame would hide it from
// the next recovery. Recovered segments are retired by the first Cut +
// Retire.
func Open(vfs storage.VFS, opts Options) (*Log, Recovered, error) {
	if opts.Durability == CheckpointOnly {
		return nil, Recovered{}, errors.New("wal: Open requires Buffered or Sync durability")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	// The recovery scan (and tear sealing) is startup I/O; appends from
	// here on are WAL I/O. Both taggings are no-ops on unattributed VFSs.
	rvfs := storage.TagVFS(vfs, storage.SrcRecovery)
	rec, tears, segs, err := recoverLog(rvfs)
	if err != nil {
		return nil, rec, err
	}
	for _, tr := range tears {
		// Seal the torn tail before this segment stops being the final
		// one: once newer segments exist, a raw tear would read as
		// corruption and fail every future recovery. Oldest first: a crash
		// part way leaves the unsealed ones still at the log's end.
		if err := sealTear(rvfs, tr); err != nil {
			return nil, rec, err
		}
	}
	l := &Log{
		vfs:        storage.TagVFS(vfs, storage.SrcWAL),
		syncEach:   opts.Durability == Sync,
		segBytes:   opts.SegmentBytes,
		appendHist: opts.AppendHist,
		flushHist:  opts.FlushHist,
		batchHist:  opts.BatchHist,
	}
	l.cond = sync.NewCond(&l.mu)
	next := uint64(1)
	for _, idx := range segs {
		l.names = append(l.names, segmentName(idx))
		if idx >= next {
			next = idx + 1
		}
	}
	l.segIndex = next
	f, _, err := l.openSegment(nil, next, nil)
	if err != nil {
		return nil, rec, err
	}
	l.installSegmentLocked(f, next, segHeaderSize)
	return l, rec, nil
}

// createSegment creates segment file index, empty, with its directory
// entry durable: the segment's first write carries its header (see
// openSegment). The entry must be durable before appends into the segment
// are acknowledged; file-content fsyncs alone do not persist it on a real
// file system. It touches no Log state but the immutable vfs, so it runs
// with l.mu released.
func (l *Log) createSegment(index uint64) (storage.File, error) {
	f, err := l.vfs.Create(segmentName(index))
	if err != nil {
		return nil, fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := l.vfs.SyncDir(); err != nil {
		l.discardSegment(f, index)
		return nil, fmt.Errorf("wal: syncing directory for new segment: %w", err)
	}
	return f, nil
}

// openSegment readies segment index to become the active one: it creates
// the segment, unless f is the one PrepareCut made, and writes its header
// followed by tail in one WriteAt, returning what that write applied. On
// failure the segment is discarded. Like createSegment, it runs with l.mu
// released when its caller holds the flush slot.
func (l *Log) openSegment(f storage.File, index uint64, tail []byte) (storage.File, int, error) {
	if f == nil {
		var err error
		if f, err = l.createSegment(index); err != nil {
			return nil, 0, err
		}
	}
	n, err := f.WriteAt(append(encodeSegHeader(index), tail...), 0)
	if err != nil {
		l.discardSegment(f, index)
		return nil, n, fmt.Errorf("wal: writing the head of segment %s: %w", segmentName(index), err)
	}
	return f, n, nil
}

// discardSegment closes and removes a segment that never became active.
// Best effort: a partial file left behind reads as a torn creation and is
// sealed or retired by the next Open's recovery scan.
func (l *Log) discardSegment(f storage.File, index uint64) {
	f.Close()
	_ = l.vfs.Remove(segmentName(index))
}

// takeSegmentLocked hands out the segment to open next: the prepared one,
// if there is one, else a fresh index for the caller to create (f nil).
func (l *Log) takeSegmentLocked() (f storage.File, index uint64) {
	if l.prepared != nil {
		f, l.prepared = l.prepared, nil
		return f, l.preparedIndex
	}
	l.segIndex++
	return nil, l.segIndex
}

// installSegmentLocked makes the freshly opened segment f, size bytes
// long, the active one. A batch that is pending — one whose flush rotated
// here — started from an empty elision state already (see append); with
// none pending, the next batch is the segment's first and starts empty.
func (l *Log) installSegmentLocked(f storage.File, index uint64, size int64) {
	if l.seg != nil {
		l.seg.Close()
	}
	l.seg = f
	l.segSize = size
	l.names = append(l.names, segmentName(index))
	l.stats.Segments++
	if len(l.pending) == 0 {
		l.pendingState = batchState{}
	}
}

// Append encodes r and appends it to the log. In Sync mode it returns once
// the record, group-committed with any concurrent appenders, is durable. In
// Buffered mode it returns once the record is in the pending buffer — the
// appender that fills the buffer (or the segment) also writes it out, and
// a flush in flight makes an appender wait only when the buffer is full
// again, which bounds it. A non-nil error means the record's durability is
// unknown; the log refuses further appends until Cut resets it. A Buffered
// write failure is reported to the appender that led the write and to every
// later one, not to the earlier appenders whose records it carried.
func (l *Log) Append(r Record) error {
	if l.appendHist == nil {
		return l.append(r)
	}
	start := time.Now()
	err := l.append(r)
	l.appendHist.ObserveDuration(time.Since(start))
	return err
}

func (l *Log) append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if len(l.pending) == 0 {
		// First record of a batch: reserve the frame header, which the
		// flush leader fills in once the batch is complete. The batch goes
		// where the segment's last one left the elision state, unless the
		// segment is full: then the flush rotates first, and the batch is
		// the next segment's first.
		l.pending = append(l.pending, make([]byte, frameReserve)...)
		if l.segSize >= l.segBytes {
			l.pendingState = batchState{}
		}
	}
	l.pending = appendRecord(l.pending, r, &l.pendingState)
	l.pendingRecs.Add(1)
	l.seq++
	seq := l.seq
	l.stats.Appends++
	// A Sync appender stays until a flush has covered its record. A
	// Buffered one leads the flush when one is due and otherwise leaves:
	// behind a leader's I/O (which may be a rotation's fsync of a whole
	// segment) it waits only if the buffer has filled up again, which is
	// what bounds the buffer. The closed recheck matters: a Close that
	// raced in while we waited has synced and released the segment, and
	// becoming leader now would write behind the final sync. The
	// straggling record is reported ErrClosed instead.
	for l.done < seq && l.err == nil && !l.closed {
		switch {
		case !l.flushing && l.syncEach:
			l.gatherLocked()
			l.flushLocked()
		case !l.flushing && l.flushDue():
			l.flushLocked()
		case l.flushing && (l.syncEach || len(l.pending) >= bufferedFlushBytes):
			l.cond.Wait()
		default:
			return nil // Buffered: accepted, waiting in the pending buffer
		}
	}
	// Success is judged by this record's own batch, not the log's latest
	// state: a later batch may have failed (setting l.err) after ours was
	// already durable, and reporting that failure here would tell the
	// caller a durably-flushed record might be lost.
	if l.done >= seq {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return ErrClosed
}

// flushDue reports whether a Buffered log should write its pending buffer
// now: it is full, or it fills (or the last write filled) the active
// segment, which the next flush rotates.
func (l *Log) flushDue() bool {
	return len(l.pending) >= bufferedFlushBytes || l.segSize+l.pendingFrameLen() >= l.segBytes
}

// pendingFrameLen is how many bytes the pending batch takes once sealed.
func (l *Log) pendingFrameLen() int64 {
	n := len(l.pending) - frameReserve
	return int64(frameHeaderLen(segVersion, n) + n)
}

// gatherLocked is what fills a group commit. An appender acknowledged by
// the last flush is back with its next record a few microseconds after the
// waiters that flush woke, and a leader that left at once would take only
// the waiters: batches would alternate between a few records and the rest,
// W closed-loop appenders would get W/2 records per fsync, and every
// acknowledgement would wait out two flushes. So a leader that finds fewer
// records pending than gatherTarget holds the flush slot — l.flushing set
// and l.mu released, so whoever arrives buffers behind it and waits instead
// of leading a flush of its own — and yields the processor until they are
// all pending or the bound has passed. It is a yield loop, not a sleep: the
// wait is far below a timer's resolution, and yielding is what lets the
// appenders run when there is one processor.
//
// The bound is not an optimisation. A counted appender may never come: it
// finished, it is parked behind a checkpoint's pending exclusive lock, or
// the leader itself appends under that lock (RelocateBlock) and nobody can.
// Or it cannot run: the yield gives way to goroutines, not to threads, and
// on a host with fewer cores than the process has threads running, the
// leader may be holding the very core the appender is waiting for. And
// since a client with think time would cost its peers the bound on every
// flush, an expired gather backs off.
//
// Called with l.mu held and l.flushing false; returns with l.mu held and,
// if it gathered, l.flushing still set for the flushLocked that follows.
func (l *Log) gatherLocked() {
	target := l.gatherTarget
	if l.pendingRecs.Load() >= target {
		return
	}
	if l.gatherSkip > 0 {
		l.gatherSkip--
		return
	}
	bound := min(l.flushTime/gatherShare, gatherCeiling)
	l.stats.Gathers++
	l.flushing = true
	l.mu.Unlock()
	for start := time.Now(); l.pendingRecs.Load() < target && time.Since(start) < bound; {
		runtime.Gosched()
	}
	l.mu.Lock()
	if l.pendingRecs.Load() >= target {
		l.stats.GathersFilled++
		l.gatherBackoff = 0
		return
	}
	l.gatherBackoff = min(max(2*l.gatherBackoff, 1), gatherMaxSkip)
	l.gatherSkip = l.gatherBackoff
}

// flushLocked writes everything pending as one batch frame in one WriteAt
// (+ Sync in Sync mode), rotating first if the active segment is full. It
// releases l.mu for the checksum and the I/O so that concurrent appenders
// can buffer the next batch behind it; l.flushing keeps every other writer
// of the segment out meanwhile. Called with l.mu held, at least one record
// pending and no other leader (l.flushing is false, or was set by the
// caller's own gather); returns with l.mu held and l.flushing false.
func (l *Log) flushLocked() {
	l.flushing = true
	defer func() {
		l.flushing = false
		l.cond.Broadcast()
	}()
	if l.segSize >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return
		}
	}
	off := l.segSize
	l.segSize += l.pendingFrameLen()
	buf := l.pending
	l.pending, l.spare = l.spare[:0], buf
	recs := l.pendingRecs.Swap(0)
	target := l.seq
	seg := l.seg
	l.mu.Unlock()

	buf = sealFrame(buf, segVersion)
	// A Sync flush is always timed: its duration bounds the next gather.
	var start time.Time
	if l.syncEach || l.flushHist != nil {
		start = time.Now()
	}
	n, err := seg.WriteAt(buf, off)
	if err == nil && l.syncEach {
		err = seg.Sync()
	}
	var took time.Duration
	if !start.IsZero() {
		took = time.Since(start)
		l.flushHist.ObserveDuration(took)
	}

	l.mu.Lock()
	l.stats.Bytes += int64(n)
	if err != nil {
		l.err = fmt.Errorf("wal: flush: %w", err)
		return
	}
	l.done = target
	l.stats.Batches++
	l.batchHist.Observe(uint64(recs))
	if l.syncEach {
		// The fsync covered the whole active segment, a cut mark heading it
		// included.
		l.markDirty = false
		l.gatherTarget = recs + l.pendingRecs.Load()
		// A running mean over the last eight flushes or so, seeded by the
		// first.
		if l.flushTime == 0 {
			l.flushTime = took
		} else {
			l.flushTime += (took - l.flushTime) / 8
		}
	}
}

// rotateLocked opens the next segment: the one PrepareCut made, if there
// is one. In Buffered mode the outgoing segment is synced first, so
// rotation bounds how much a power failure can lose to roughly one segment;
// in Sync mode its records are durable already, and it is synced only for
// a cut mark that no fsync has covered yet — a successor durable ahead of
// the mark would leave recovery a torn creation mid-log. Called by the flush
// leader with l.mu held and l.flushing set; like the leader's own write, the
// I/O — an fsync of up to a whole segment — runs with l.mu released, so
// appenders keep buffering instead of stalling behind it.
func (l *Log) rotateLocked() error {
	old := l.seg
	f, index := l.takeSegmentLocked()
	// names cannot change while flushing is set: Cut, Retire and Close all
	// wait for it.
	unsynced := l.names[l.synced : len(l.names)-1]
	syncMark := l.markDirty
	l.mu.Unlock()
	var err error
	switch {
	case !l.syncEach:
		err = l.syncThrough(unsynced, old)
	case syncMark:
		if err = old.Sync(); err != nil {
			err = fmt.Errorf("wal: syncing cut mark: %w", err)
		}
	}
	if err == nil {
		f, _, err = l.openSegment(f, index, nil)
	} else if f != nil {
		l.discardSegment(f, index)
	}
	l.mu.Lock()
	if err != nil {
		return err
	}
	l.synced = len(l.names)
	l.markDirty = false
	l.installSegmentLocked(f, index, segHeaderSize)
	return nil
}

// syncThrough fsyncs the named older segments, oldest first, and then seg.
// A Buffered log makes a segment durable only through here, so none
// becomes durable ahead of a live predecessor that is not — a Cut leaves
// its outgoing segment unsynced (the checkpoint normally retires it within
// moments), and so does the recovered tail of a killed process — and what
// a power failure leaves is always a prefix of append order.
func (l *Log) syncThrough(older []string, seg storage.File) error {
	for _, name := range older {
		f, err := l.vfs.Open(name)
		if err != nil {
			return fmt.Errorf("wal: syncing segment %s: %w", name, err)
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("wal: syncing segment %s: %w", name, err)
		}
	}
	if err := seg.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment: %w", err)
	}
	return nil
}

// PrepareCut makes the segment the next Cut opens ahead of it: created,
// its directory entry durable, empty. The engine calls it before it freezes
// the write stores, so that Cut, which runs while every updater is held out,
// creates no file and syncs nothing. It holds the flush slot while it
// creates the file — a rotation meanwhile would open the index after it
// first, and the prepared segment would then follow its successor — so a
// Sync appender waits it out as it would a flush. A prepared segment stays
// until a Cut or a rotation opens it, or Close removes it; a second call
// meanwhile does nothing. If it fails, Cut creates the segment itself.
func (l *Log) PrepareCut() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.prepared != nil {
		return nil
	}
	l.segIndex++
	index := l.segIndex
	l.flushing = true
	l.mu.Unlock()
	f, err := l.createSegment(index)
	l.mu.Lock()
	l.flushing = false
	l.cond.Broadcast()
	if err != nil {
		return err
	}
	l.prepared, l.preparedIndex = f, index
	return nil
}

// Cut rotates to a fresh segment headed by a cut mark and returns a token
// for Retire: the engine calls it at the instant a checkpoint freezes the
// write stores, so that every record appended from then on — updates for
// the NEXT consistency point, racing the flush — lands past the cut and
// survives the retirement of the segments the checkpoint covers.
//
// Records still in the pending buffer go into the outgoing segment first:
// a Buffered log has acknowledged them, and until the checkpoint commits
// the log is their only durable-to-be copy. If that write fails, Cut fails
// with the log's sticky error set and nothing rotated; the next Cut
// recovers as below. If the log is already in a failed state, Cut instead
// drops the buffer and clears the sticky error: records whose logging
// failed were still applied to the write stores, so they are frozen into
// the very flush this cut starts — their durability from here on is the
// checkpoint's business, which the engine tracks with its own sticky error
// across the flush.
//
// The fresh segment is the one PrepareCut made, if a rotation has not
// opened it since; its header and the mark go out in one WriteAt, and
// nothing is synced. A Sync-mode caller that is about to rely on the mark
// — the checkpoint's commit — calls SyncCut first. If the write fails the
// segment is discarded and the sticky error set, so appends wait for the
// next Cut.
//
// The caller must guarantee no Append is in flight — in the engine, Cut
// runs under the exclusive structural lock that excludes all updaters.
func (l *Log) Cut(cp uint64) (cut int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return 0, ErrClosed
	}
	if l.err == nil && len(l.pending) > 0 {
		// No appender or other leader exists (see below), so the mutex
		// flushLocked releases around its I/O stays uncontended.
		if l.flushLocked(); l.err != nil {
			return 0, l.err
		}
	}
	l.dropPendingLocked()
	f, index := l.takeSegmentLocked()
	f, n, err := l.openSegment(f, index, appendFrame(nil, segVersion, &batchState{}, Record{Op: OpCut, CP: cp}))
	l.stats.Bytes += int64(max(n-segHeaderSize, 0))
	if err != nil {
		l.err = err
		return 0, err
	}
	l.installSegmentLocked(f, index, int64(n))
	l.markDirty = l.syncEach
	return len(l.names) - 1, nil
}

// SyncCut makes the last Cut's mark durable. The mark is what lets
// recovery tolerate a torn, resurrected predecessor segment and drop the
// records a committed checkpoint covers, so in Sync mode it must be durable
// before the checkpoint that cut there commits. The fsync of any append
// acknowledged past the mark covered it already, and then SyncCut does
// nothing; in Buffered mode it never does anything, the mark being as
// durable as the records around it. Like a flush, it holds the flush slot
// for its fsync, and a failure sets the sticky error.
func (l *Log) SyncCut() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if !l.markDirty {
		return nil
	}
	l.flushing = true
	seg := l.seg
	l.mu.Unlock()
	err := seg.Sync()
	l.mu.Lock()
	l.flushing = false
	l.cond.Broadcast()
	if err != nil {
		l.err = fmt.Errorf("wal: syncing cut mark: %w", err)
		return l.err
	}
	l.markDirty = false
	return nil
}

// Retire deletes the segments a Cut superseded, once the checkpoint that
// issued the Cut has committed: everything those segments guarded is now
// durable in the read store, while records appended during the flush live
// past the cut and are untouched. Safe to call concurrently with appends
// (it waits out a flush in flight, whose rotation may be syncing the very
// segments retired here). On failure the not-yet-removed segments stay
// tracked, so a later Cut + Retire (or recovery's CP filter) still retires
// them.
func (l *Log) Retire(cut int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if cut < 0 || cut >= len(l.names) {
		return fmt.Errorf("wal: retire cut %d out of range (%d segments)", cut, len(l.names))
	}
	old := l.names[:cut]
	for i, name := range old {
		if err := l.vfs.Remove(name); err != nil && !errors.Is(err, storage.ErrNotExist) {
			l.names = append(append([]string(nil), old[i:]...), l.names[cut:]...)
			l.synced = max(l.synced-i, 0)
			return err
		}
	}
	l.names = append([]string(nil), l.names[cut:]...)
	l.synced = max(l.synced-cut, 0)
	l.stats.Truncates++
	return nil
}

// Close drains pending appends, syncs the active segment (so a clean
// shutdown in Buffered mode loses nothing), and releases it. A segment
// PrepareCut made that no Cut or rotation opened is removed. It returns
// the log's sticky error, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return l.err
	}
	if len(l.pending) > 0 && l.err == nil {
		l.flushLocked()
	}
	if l.err == nil && !l.syncEach {
		l.err = l.syncThrough(l.names[l.synced:len(l.names)-1], l.seg)
	}
	l.closed = true
	l.seg.Close()
	if l.prepared != nil {
		l.discardSegment(l.prepared, l.preparedIndex)
		l.prepared = nil
	}
	l.cond.Broadcast()
	return l.err
}

// dropPendingLocked discards the pending buffer and the sticky error, and
// counts every record appended so far as settled.
func (l *Log) dropPendingLocked() {
	l.err = nil
	l.pending = l.pending[:0]
	l.pendingRecs.Store(0)
	l.done = l.seq
}

// Err returns the log's sticky flush error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// BufferedBytes returns the bytes of records accepted but not yet handed
// to the OS: what a Buffered log would lose if the process died now. The
// room reserved ahead of them for the frame header, whose length is known
// only once the batch is complete, is not a record byte: an empty buffer
// reports 0.
func (l *Log) BufferedBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return max(len(l.pending)-frameReserve, 0)
}

// SegmentCount returns the number of live segment files (recovered +
// active).
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.names)
}
