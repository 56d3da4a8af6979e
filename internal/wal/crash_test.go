package wal

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/storage"
)

// crashRig is one run of a script on a fresh MemFS whose plan kills the
// "process" at a mutating call — a create, write, sync or remove — tearing
// the dying write as the mode says; every later one fails too.
type crashRig struct {
	fs *storage.MemFS
	// beforeWrite, when set, runs at the start of every WriteAt past a
	// segment header (the log calls those with its mutex released): a
	// script's hook for lining appenders up behind a flush leader.
	beforeWrite func()
	// syncDelay is how long every fsync takes: a flush long enough that a
	// share of it is a usable gather bound.
	syncDelay time.Duration
	// dying is the write the kill fell on, if it fell on one.
	dying storage.Call
}

// newCrashRig kills at mutating call killAt, counted from 1 (never if 0),
// as the plan's torn-write fields say.
func newCrashRig(killAt int64, mode storage.FailurePlan) *crashRig {
	r := &crashRig{fs: storage.NewMemFS()}
	mode.KillAt = killAt
	mode.Hook = func(c storage.Call) error {
		if c.Op == storage.OpWrite && c.Off > 0 && r.beforeWrite != nil {
			r.beforeWrite()
		}
		if c.Op == storage.OpWrite && r.fs.Stats().Calls+1 == killAt {
			r.dying = c
		}
		if c.Op == storage.OpSync {
			time.Sleep(r.syncDelay)
		}
		return nil
	}
	r.fs.SetFailurePlan(mode)
	return r
}

// powerLoss is one state a power failure may leave, by name.
type powerLoss struct {
	name  string
	state storage.CrashState
}

// powerLosses lists the states the matrix crashes a killed run into, mode
// being the plan it was killed under: the state Crash has always left
// (nothing unsynced survives); every prefix of the directory's entry
// operations since its last sync, each keeping the surviving entries of
// files never synced; and, when the dying write left unsynced pages — a
// torn write that reached the page cache only — every one of those pages,
// and each alone (eight seeded picks when there are more). The page states
// keep every pending entry, so that a page of a file never synced can
// survive.
func (r *crashRig) powerLosses(mode storage.FailurePlan, rng *rand.Rand) []powerLoss {
	pending := r.fs.PendingEntries()
	states := []powerLoss{{name: "default"}}
	for k := 0; k <= pending; k++ {
		states = append(states, powerLoss{fmt.Sprintf("entries %d of %d", k, pending), storage.CrashState{Directory: true, Entries: k}})
	}
	if !mode.TornWrite || mode.TornWriteDurable || r.dying.Op != storage.OpWrite {
		return states
	}
	// The torn write applied the first half of the pages it spans.
	first := r.dying.Off / storage.PageSize
	applied := (r.dying.Off+int64(r.dying.Len)+storage.PageSize-1)/storage.PageSize - first
	applied /= 2
	if applied == 0 {
		return states
	}
	keep := func(pages ...int64) storage.CrashState {
		return storage.CrashState{Directory: true, Entries: pending, Pages: func(name string, p int64) bool {
			return name == r.dying.Name && slices.Contains(pages, p)
		}}
	}
	all := make([]int64, applied)
	for i := range all {
		all[i] = first + int64(i)
	}
	states = append(states, powerLoss{fmt.Sprintf("the dying write's %d pages", applied), keep(all...)})
	alone := slices.Clone(all)
	if len(alone) > 8 {
		rng.Shuffle(len(alone), func(i, j int) { alone[i], alone[j] = alone[j], alone[i] })
		alone = alone[:8]
	}
	for _, p := range alone {
		states = append(states, powerLoss{fmt.Sprintf("the dying write's page %d alone", p), keep(p)})
	}
	return states
}

// logScript drives one log through appends, a rotation or two, a Cut
// whose checkpoint never commits, a Cut that does, and a clean Close, and
// records what the log acknowledged on the way. Each Cut comes as the
// engine makes it: its segment made ahead by PrepareCut, and, for the
// checkpoint that commits, its mark synced before the Retire.
type logScript struct {
	appended []Record // every record handed to Append, in order
	acked    int      // appended[:acked] were acknowledged (Append returned nil)
	retired  []int    // the first record left on disk after each Retire (see run)
	// unretired: the first record of each segment the Retire removes, where
	// recovery starts when a crash undoes the later removals
	unretired []int
	batches   uint64 // runConcurrent, runGathered: flushes that completed
	ackedBy   [2]int // runGathered: records acknowledged to each appender
}

func crashRec(i int) Record {
	// Wide values: ~40-byte records, so that a few thousand cross the
	// 64 KiB write threshold and writes span several pages. The CP changes
	// every fifth record, so batches hold elided and spelled-out ones.
	return Record{Op: OpAddRef, Block: uint64(i), Inode: 1<<62 + uint64(i), Offset: 1 << 63, Line: 1 << 62, Length: 1 << 63, CP: 1<<35 + uint64(i/5)}
}

func (s *logScript) run(vfs storage.VFS, d Durability, segBytes int64, perPhase int) {
	l, _, err := Open(vfs, Options{Durability: d, SegmentBytes: segBytes})
	if err != nil {
		return // died creating the first segment
	}
	phase := func() {
		for i := 0; i < perPhase; i++ {
			r := crashRec(len(s.appended))
			s.appended = append(s.appended, r)
			// Acknowledgements stop for good at the first failure: the
			// process is dead from there on.
			if err := l.Append(r); err == nil && s.acked == len(s.appended)-1 {
				s.acked++
			}
		}
	}
	// The first checkpoint's segment is made ahead of a whole phase, so
	// that a rotating log opens it in a rotation, and the Cut its own.
	_ = l.PrepareCut()
	phase()
	// A checkpoint freezes here and never commits: nothing is retired.
	_, _ = l.Cut(1)
	phase()
	// This one commits.
	_ = l.PrepareCut()
	if cut, err := l.Cut(2); err == nil {
		at := len(s.appended)
		phase()
		// Retire removes the segments before the cut, oldest first, and
		// syncs no directory: a crash that keeps only the first few removals
		// brings the rest back, and recovery starts at the first record of
		// one of them.
		for _, name := range l.names[:cut] {
			if idx, ok := parseSegmentName(name); ok {
				var rec Recovered
				if readSegment(vfs, idx, &rec, &tear{}); len(rec.Records) > 0 {
					s.unretired = append(s.unretired, int(rec.Records[0].Block))
				}
			}
		}
		if l.SyncCut() == nil && l.Retire(cut) == nil {
			s.retired = append(s.retired, at)
		} else {
			// SyncCut or Retire died, the latter perhaps part way: recovery
			// starts at the first record of the oldest segment left that
			// holds any, each read on its own before the crash — 0 unless
			// record 0's segment is gone.
			segs, _ := listSegments(vfs)
			for _, idx := range segs {
				var rec Recovered
				if readSegment(vfs, idx, &rec, &tear{}); len(rec.Records) > 0 {
					s.retired = append(s.retired, int(rec.Records[0].Block))
					break
				}
			}
		}
	}
	phase()
	_ = l.Close()
}

// runConcurrent is the Sync script whose batches hold more than one record.
// Every round lines four appenders up so that the log frames them the same
// way every time: the first becomes flush leader with a batch of one, and
// while its write is held the other three queue behind it, in order, and
// go out together as the next batch. Rotation happens on the way.
func (s *logScript) runConcurrent(vfs *crashRig, segBytes int64, rounds int) {
	l, _, err := Open(vfs.fs, Options{Durability: Sync, SegmentBytes: segBytes})
	if err != nil {
		return
	}
	held := make(chan chan struct{}) // a write announces itself and waits for its release
	vfs.beforeWrite = func() {
		release := make(chan struct{})
		held <- release
		<-release
	}
	for round := 0; round < rounds; round++ {
		base := len(s.appended)
		for i := 0; i < 4; i++ {
			s.appended = append(s.appended, crashRec(base+i))
		}
		acks := make(chan error, 4) // one send per appender
		appendNext := func(i int) {
			before := seqNow(l)
			go func() { acks <- l.Append(s.appended[base+i]) }()
			awaitLog(l, func() bool { return seqNow(l) != before || l.Err() != nil })
		}
		nacked, returned := 0, 0
		collect := func(err error) {
			returned++
			if err == nil {
				nacked++
			}
		}
		appendNext(0)
		select {
		case release := <-held:
			// The leader's write is held; queue the rest behind it.
			for i := 1; i < 4; i++ {
				appendNext(i)
			}
			close(release)
		case err := <-acks:
			// The leader never got to its write — the log is dead, or dies
			// rotating — and whoever follows fails on the sticky error.
			collect(err)
			for i := 1; i < 4; i++ {
				appendNext(i)
			}
		}
		for returned < 4 {
			select {
			case release := <-held:
				close(release)
			case err := <-acks:
				collect(err)
			}
		}
		// Failures are sticky, so the acknowledged are a prefix of the
		// round: nobody, the leader, or everybody.
		if s.acked == base {
			s.acked += nacked
		}
	}
	vfs.beforeWrite = nil
	s.batches = l.Stats().Batches
	_ = l.Close()
}

// gatheredRec is appender a's i-th record in runGathered.
func gatheredRec(a, i int) Record {
	r := crashRec(i)
	r.Block |= uint64(a) << 32
	return r
}

// runGathered is the Sync script whose batches the gather forms, not a
// line-up: two closed-loop appenders, each sending its next record when the
// last is acknowledged, on a log whose fsyncs take long enough to bound a
// gather usefully. Only the start is arranged — the first appender's write is
// held until the second's record is pending, so the first flush leaves two
// in the loop. From then on every leader holds one record and gathers the
// other's next: perAppender appends each make one batch of one, pairs, and a
// last batch of one whose leader gathered for an appender that had finished.
func (s *logScript) runGathered(vfs *crashRig, segBytes int64, perAppender int) {
	l, _, err := Open(vfs.fs, Options{Durability: Sync, SegmentBytes: segBytes})
	if err != nil {
		return
	}
	appender := func(a int, done chan<- struct{}) {
		defer close(done)
		for i := 0; i < perAppender; i++ {
			if l.Append(gatheredRec(a, i)) != nil {
				return // the process is dead from here on
			}
			s.ackedBy[a]++
		}
	}
	firstWrite := make(chan struct{})
	vfs.beforeWrite = func() {
		select {
		case <-firstWrite:
		default:
			close(firstWrite)
			awaitLog(l, func() bool { return seqNow(l) == 2 })
		}
	}
	done := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	go appender(0, done[0])
	<-firstWrite
	go appender(1, done[1])
	<-done[0]
	<-done[1]
	vfs.beforeWrite = nil
	s.batches = l.Stats().Batches
	_ = l.Close()
}

// checkGathered is check for runGathered, whose appenders interleave as they
// please: each appender's recovered records are its own in order, and — the
// model keeps nothing unsynced, and a batch is acknowledged as a whole —
// exactly those it was acknowledged.
func (s *logScript) checkGathered(rec Recovered) error {
	var got [2]int
	for _, r := range rec.Records {
		a := int(r.Block >> 32)
		if a > 1 {
			return fmt.Errorf("recovered %+v, which neither appender sent", r)
		}
		if r != gatheredRec(a, got[a]) {
			return fmt.Errorf("recovered %+v where appender %d's record %d was due (a hole or reordering)", r, a, got[a])
		}
		got[a]++
	}
	if got != s.ackedBy {
		return fmt.Errorf("recovered %v records of the two appenders, acknowledged were %v", got, s.ackedBy)
	}
	return nil
}

// check verifies the recovery contract against what the script observed:
// the recovered records are a contiguous stretch of the appended sequence
// that starts at the beginning or at a retired cut — a prefix of append
// order — or, when a crash undid removals (undone), at the first record of
// a retired segment, and, when mustCover, reaches at least through the last
// acknowledged record.
func (s *logScript) check(rec Recovered, mustCover, undone bool) error {
	starts := append([]int{0}, s.retired...)
	if undone {
		starts = append(starts, s.unretired...)
	}
	lo := 0
	if len(rec.Records) > 0 {
		lo = int(rec.Records[0].Block)
	} else if mustCover {
		lo = starts[len(starts)-1]
	}
	okStart := len(rec.Records) == 0
	for _, st := range starts {
		okStart = okStart || st == lo
	}
	if !okStart {
		return fmt.Errorf("recovered records start at %d, want one of %v", lo, starts)
	}
	hi := lo + len(rec.Records)
	if hi > len(s.appended) {
		return fmt.Errorf("recovered %d records from %d, only %d appended", len(rec.Records), lo, len(s.appended))
	}
	for i, r := range rec.Records {
		if r != s.appended[lo+i] {
			return fmt.Errorf("recovered record %d is %+v, want appended[%d] = %+v (a hole or reordering)", i, r, lo+i, s.appended[lo+i])
		}
	}
	if mustCover && hi < s.acked {
		return fmt.Errorf("recovered through record %d, but %d were acknowledged", hi, s.acked)
	}
	return nil
}

// The scripts TestCrashAtEveryIO runs.
const (
	serial     = iota // logScript.run
	concurrent        // runConcurrent, perPhase rounds
	gathered          // runGathered, perPhase appends per appender
)

// TestCrashAtEveryIO is the executable statement of what each durability
// mode keeps: a scripted run is killed at every create, write, fsync and
// remove in turn, plainly and with the dying write torn, the machine then
// loses power into each state powerLosses lists (a clone of the killed
// run's file system each), and recovery must succeed and return a prefix of
// append order — in Sync mode one that holds every acknowledged record. The
// kill point past the last I/O is the clean run followed by a power failure.
func TestCrashAtEveryIO(t *testing.T) {
	cases := []struct {
		name     string
		d        Durability
		segBytes int64
		perPhase int
		script   int
	}{
		// One 64 KiB threshold write per phase, no rotation.
		{"buffered", Buffered, 0, 2000, serial},
		// Rotation (write + fsync of the outgoing segment) inside every
		// phase, so a Cut-abandoned segment precedes a synced one.
		{"buffered-rotating", Buffered, 24 << 10, 1500, serial},
		{"sync", Sync, 1 << 10, 40, serial},
		// Group commits of one and three records; segments long enough
		// that batches straddle a page, so a torn write leaves half of one
		// (a frame of three of these records is about 100 bytes with its
		// 5-byte header, the state carried from the frame before).
		// Still two batches a round with the gather: the leader of the three
		// knows of a fourth appender in the loop and holds the slot for it,
		// but that one is not sent again before the round is over, so the
		// gather expires (or is skipped, backing off) and takes no one in.
		{"sync-concurrent", Sync, 6 << 10, 40, concurrent},
		// Group commits of two that the gather put together, rotating every
		// few. The segments are far shorter than a page: a torn write here
		// is a failed one, and what the script adds to the one above is the
		// acknowledgement of a gathered batch whose flush dies.
		{"sync-gathered", Sync, 256, 10, gathered},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.script == gathered {
				onProcessors(t, 1)
			}
			run := func(vfs *crashRig) *logScript {
				var s logScript
				switch c.script {
				case serial:
					s.run(vfs.fs, c.d, c.segBytes, c.perPhase)
				case concurrent:
					s.runConcurrent(vfs, c.segBytes, c.perPhase)
				case gathered:
					vfs.syncDelay = time.Millisecond
					s.runGathered(vfs, c.segBytes, c.perPhase)
				}
				return &s
			}
			// Count the I/Os of an unharmed run.
			dry := newCrashRig(0, storage.FailurePlan{})
			clean := run(dry)
			// Whether a gather fills is a matter of microseconds: give the
			// unharmed run a few tries at the batches the script is about.
			for try := 0; c.script == gathered && clean.batches != uint64(c.perPhase+1) && try < 5; try++ {
				dry = newCrashRig(0, storage.FailurePlan{})
				clean = run(dry)
			}
			ios := dry.fs.Stats().Calls
			if ios < 8 {
				t.Fatalf("script made only %d I/Os", ios)
			}
			t.Logf("%d kill points", ios)
			if c.script == concurrent && (clean.batches != uint64(2*c.perPhase) || clean.acked != 4*c.perPhase) {
				t.Fatalf("%d rounds of four appenders made %d batches and %d acknowledgements, want two batches (of 1 and 3) a round", c.perPhase, clean.batches, clean.acked)
			}
			if c.script == gathered && (clean.batches != uint64(c.perPhase+1) || clean.ackedBy != [2]int{c.perPhase, c.perPhase}) {
				t.Fatalf("two appenders of %d records made %d batches and %v acknowledgements, want a batch of one, pairs, and a batch of one", c.perPhase, clean.batches, clean.ackedBy)
			}
			// The dying write fails, applies half its pages volatile, or
			// makes them — and only them — durable.
			rng := rand.New(rand.NewSource(1))
			states, straddled := 0, 0
			for _, mode := range []storage.FailurePlan{{}, {TornWrite: true}, {TornWrite: true, TornWriteDurable: true}} {
				if mode.TornWrite && c.segBytes < storage.PageSize && c.segBytes > 0 {
					continue // every write spans one page: a torn one is a failed one
				}
				for at := int64(1); at <= ios+1; at++ {
					vfs := newCrashRig(at, mode)
					s := run(vfs)
					killed := fmt.Sprintf("kill at I/O %d of %d (torn %v, durable %v)", at, ios, mode.TornWrite, mode.TornWriteDurable)
					// A gathered run in which a gather expired makes an I/O
					// more or fewer than the unharmed one did: it dies at
					// another I/O than this index names there, or not at
					// all, and is held to the same contract.
					if dead := vfs.fs.Stats().Calls >= at; dead != (at <= ios) && c.script != gathered {
						t.Fatalf("%s: dead=%v", killed, dead)
					}
					for _, loss := range vfs.powerLosses(mode, rng) {
						states++
						if strings.HasPrefix(loss.name, "the dying write's") {
							straddled++
						}
						fs := vfs.fs.Clone()
						fs.Crash(loss.state)
						if err := s.recoverAfter(fs, c.d, c.script, loss, fmt.Sprintf("%s, crash state %q", killed, loss.name)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			t.Logf("%d crash states, %d of them a torn write's pages", states, straddled)
			if straddled == 0 && (c.segBytes == 0 || c.segBytes >= storage.PageSize) {
				t.Fatal("no dying write spanned two pages: no state keeps half a write")
			}
		})
	}
}

// recoverAfter checks the log a crash left in fs against what the script
// observed, then opens it for writing, which seals any tear at the start of
// the batch it tore, and checks that a second recovery reads what the first
// did.
func (s *logScript) recoverAfter(fs *storage.MemFS, d Durability, script int, loss powerLoss, when string) error {
	rec, err := Recover(fs)
	if err != nil {
		return fmt.Errorf("%s: recovery failed: %v", when, err)
	}
	if script == gathered {
		err = s.checkGathered(rec)
	} else {
		err = s.check(rec, d == Sync, loss.state.Directory)
	}
	if err != nil {
		return fmt.Errorf("%s: %v", when, err)
	}
	if script == concurrent && len(rec.Records) != s.acked {
		// A batch is acknowledged as a whole once its fsync returns, and
		// no state keeps a whole unsynced write: the batch the kill hit —
		// its write failed, tore, or never got its fsync — yields none of
		// its records, every batch before it all of them.
		return fmt.Errorf("%s: recovered %d records, want exactly the %d acknowledged", when, len(rec.Records), s.acked)
	}
	l, rec2, err := Open(fs, Options{Durability: d})
	if err != nil {
		return fmt.Errorf("%s: reopen failed: %v", when, err)
	}
	if !slices.Equal(rec2.Records, rec.Records) {
		return fmt.Errorf("%s: reopen recovered %d records, Recover %d", when, len(rec2.Records), len(rec.Records))
	}
	if err := l.Close(); err != nil {
		return fmt.Errorf("%s: closing the reopened log: %v", when, err)
	}
	rec3, err := Recover(fs)
	if err != nil {
		return fmt.Errorf("%s: recovery after reopen failed: %v", when, err)
	}
	if !slices.Equal(rec3.Records, rec.Records) || !slices.Equal(rec3.Cuts, rec.Cuts) {
		return fmt.Errorf("%s: recovery after the sealing reopen returned %d records and cuts %v, before it %d and %v",
			when, len(rec3.Records), rec3.Cuts, len(rec.Records), rec.Cuts)
	}
	return nil
}

// TestBufferedCutKeepsAcknowledgedRecords pins the Cut contract coalescing
// introduced: records a Buffered log acknowledged but still holds in memory
// go into the outgoing segment at the Cut, so a process that dies before
// the checkpoint commits (the OS keeps what was written) recovers them
// ahead of the post-cut records, not a log with a hole.
func TestBufferedCutKeepsAcknowledgedRecords(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Buffered)
	for i := 0; i < 3; i++ {
		if err := l.Append(addRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.BufferedBytes(); got == 0 {
		t.Fatal("three small appends were written through, not buffered")
	}
	if st := vfs.Stats(); st.BytesWritten != segHeaderSize {
		t.Fatalf("wrote %d bytes before any flush was due, want just the segment header", st.BytesWritten)
	}
	if _, err := l.Cut(1); err != nil {
		t.Fatal(err)
	}
	if got := l.BufferedBytes(); got != 0 {
		t.Fatalf("%d bytes still buffered after Cut", got)
	}
	if err := l.Append(addRec(3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint never committed and nothing was retired; the power
	// stays on or fails, the log is whole either way (Close synced the
	// segment the Cut left behind before the one after it).
	for _, crash := range []bool{false, true} {
		if crash {
			vfs.Crash()
		}
		rec, err := Recover(vfs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Records) != 4 {
			t.Fatalf("crash=%v: recovered %d records, want 4: %+v", crash, len(rec.Records), rec.Records)
		}
		for i, r := range rec.Records {
			if r != addRec(i) {
				t.Fatalf("crash=%v: record %d is %+v", crash, i, r)
			}
		}
		if len(rec.Cuts) != 1 || rec.Cuts[0] != (CutMark{Index: 3, CP: 1}) {
			t.Fatalf("crash=%v: cuts = %+v", crash, rec.Cuts)
		}
	}
}

// TestBufferedCoalescesWrites: a Buffered log's device writes follow its
// bytes, not its appends.
func TestBufferedCoalescesWrites(t *testing.T) {
	vfs := storage.NewMemFS()
	l, _ := mustOpen(t, vfs, Buffered)
	const n = 20000
	for i := 0; i < n; i++ {
		if err := l.Append(crashRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	// Every write carries 64 KiB plus at most the frame that crossed it.
	lo, hi := uint64(st.Bytes/(bufferedFlushBytes+64)), uint64(st.Bytes/bufferedFlushBytes)
	if st.Batches < lo || st.Batches > hi {
		t.Fatalf("%d appends (%d bytes) took %d writes, want %d..%d", n, st.Bytes, st.Batches, lo, hi)
	}
	if got := l.BufferedBytes(); got <= 0 || got >= bufferedFlushBytes {
		t.Fatalf("BufferedBytes = %d, want within (0, %d)", got, bufferedFlushBytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(vfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		if r != crashRec(i) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}
