package lsm

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"

	"github.com/backlogfs/backlog/internal/bloom"
	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// FileSet builds the runs of one level and consistency point for a list of
// tables, and is the one way to build a run. A partition's runs (Run) are
// sections of one file, in the order of the list, each page-aligned with no
// padding between them, and their Bloom filters follow the last one's
// pages; a run that must be able to leave the store alone (RunApart) is a
// file of its own. A file is created on its first record, so a run that
// gets none costs nothing. The tables' records stream in side by side, from
// one goroutine per table or interleaved on one, each run through its own
// builder. A run's pages go to the file as its write buffer fills once its
// place there is known — once every earlier table of its file is done
// (Done) or known to have no run in it; until then nothing waits, the run
// keeps its pages in its buffer. Finish then writes what is still
// buffered, the filters and the headers, and syncs each file once: a file
// whose runs all fit their buffers is one write.
//
// The checkpoint flush writes its From, To and Combined runs through one
// set, its tables on three goroutines, so a consistency point costs one run
// file per partition; its commit rides the last of them (see Finish). A merge does too, from the one
// goroutine that joins its inputs: its later sections buffer their whole
// run until the join ends, and Finish writes them. Under tiered retention a
// merge's sealed Combined output and its override run go apart, since
// expiry drops the one alone and the other is re-merged alone.
type FileSet struct {
	db     *DB
	level  int
	cp     uint64
	src    storage.Source
	tables []string

	mu     sync.Mutex
	shared map[int]*setFile // by partition, made by its first record
	last   *setFile         // the shared file made last
	apart  []*setFile       // the files of runs apart, made by their first record
	runs   []*RunBuilder    // in the order Run and RunApart made them
	done   []bool           // by table: its stream ended and its runs are sealed
	err    error            // the first failure, which later Dones return
}

// setFile is one file of a FileSet.
type setFile struct {
	rf   *runFile // its handle is the write handle until the set's Finish
	fw   *btree.FileWriter
	runs []*RunBuilder // by section slot
}

// NewFileSet starts a set of run files for the given tables. Level 0 marks
// a per-CP flush; levels >= 1 compacted runs (a stepped merge stamps its
// outputs one level above its inputs, a full-partition merge its inputs'
// highest level, 1 at least). A file is named for what made it — cp.* by
// a checkpoint (src storage.SrcCheckpoint), merge.* by a merge, and for its
// table by a set of one table — and becomes visible only when an Edit
// commits its runs. All I/O the set issues —
// file creation, page writes, syncs, and removal on abort — is attributed
// to src. A checkpoint's runs write their pages through to the page cache
// where the cache has room for them (btree.Writer.WriteThrough), so the
// queries and the merge that read a fresh run find it in memory. A merge's
// runs cache nothing: a merge's output is about as large as its inputs and
// mostly cold, and a merge inserts no page into the cache and evicts none,
// scan and output alike.
func (db *DB) NewFileSet(level int, cp uint64, src storage.Source, tables ...string) *FileSet {
	return &FileSet{db: db, level: level, cp: cp, src: src, tables: tables,
		shared: map[int]*setFile{}, done: make([]bool, len(tables))}
}

// Run returns a builder for table's run in partition, a section of the
// partition's file. Call it once per (table, partition), from the goroutine
// that streams the table's records. expectRecords is an upper bound on the
// records the caller will add; it sizes the Bloom filter, which is shrunk
// to the keys actually added when the run is sealed. A table not in the set
// or a partition out of range is the caller's bug, and panics.
func (s *FileSet) Run(table string, partition, expectRecords int) *RunBuilder {
	return s.newRun(table, partition, expectRecords, false)
}

// RunApart is Run for a run that is a file of its own, which a later Edit
// can drop without keeping a sibling's bytes alive or being kept alive by
// them. A table may have several runs apart in one partition.
func (s *FileSet) RunApart(table string, partition, expectRecords int) *RunBuilder {
	return s.newRun(table, partition, expectRecords, true)
}

func (s *FileSet) newRun(table string, partition, expectRecords int, apart bool) *RunBuilder {
	t, slot := s.db.tables[table], slices.Index(s.tables, table)
	if t == nil || slot < 0 || partition < 0 || partition >= s.db.opts.Partitions {
		panic(fmt.Sprintf("lsm: no run of table %q in partition %d in the file set", table, partition))
	}
	b := &RunBuilder{set: s, table: t, slot: slot, partition: partition, apart: apart, expect: expectRecords}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs = append(s.runs, b)
	return b
}

// start places b in its file on its first record, creating the file if b
// is its first run.
func (b *RunBuilder) start() error {
	s := b.set
	s.mu.Lock()
	defer s.mu.Unlock()
	file, sec := s.shared[b.partition], b.slot
	if b.apart {
		file, sec = nil, 0
	}
	if file == nil {
		prefix := "merge"
		switch {
		case len(s.tables) == 1:
			prefix = s.tables[0]
		case s.src == storage.SrcCheckpoint:
			prefix = "cp"
		}
		name := fmt.Sprintf("%s.p%03d.%010d.run", prefix, b.partition, s.db.allocID())
		f, err := s.db.vfsFor(s.src).Create(name)
		if err != nil {
			return err
		}
		slots := len(s.tables)
		if b.apart {
			slots = 1
		}
		file = &setFile{rf: &runFile{name: name, f: f}, fw: btree.NewFileWriter(f, slots), runs: make([]*RunBuilder, slots)}
		if b.apart {
			s.apart = append(s.apart, file)
		} else {
			s.shared[b.partition], s.last = file, file
			for slot, done := range s.done {
				if done {
					file.fw.Skip(slot)
				}
			}
		}
	}
	// Every run funnels through here — checkpoint flushes and compaction —
	// so the configured format covers them all.
	w, err := file.fw.Section(sec, b.table.spec.RecordSize, s.db.opts.RunFormat)
	if err != nil {
		return err
	}
	if s.src == storage.SrcCheckpoint {
		w.WriteThrough(s.db.cache)
	}
	file.runs[sec] = b
	b.file, b.writer = file, w
	b.filter = bloom.NewForCapacity(b.expect, b.table.spec.BloomMaxBytes)
	return nil
}

// Done ends table's stream. With err nil it seals the runs the stream
// started — their last pages, index levels and headers — after which the
// runs of later tables know where they start; with err, or when sealing
// fails, it fails the set. Once the set has failed, Done returns that
// failure whatever its err. Every table streamed on a goroutine of its own
// ends in one Done, failed or not, and returns what it returns; Finish ends
// the streams that have not ended.
func (s *FileSet) Done(table string, err error) error {
	slot := slices.Index(s.tables, table)
	var runs []*RunBuilder
	s.mu.Lock()
	if err == nil {
		err = s.err
	}
	for _, b := range s.runs {
		if b.slot == slot && b.writer != nil {
			runs = append(runs, b)
		}
	}
	s.mu.Unlock()
	for _, b := range runs {
		if err != nil {
			break
		}
		err = b.seal()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return err
	}
	s.done[slot] = true
	for _, file := range s.shared {
		if file.runs[slot] == nil {
			file.fw.Skip(slot)
		}
	}
	return nil
}

// Finish ends every stream not yet Done, writes and syncs every file of the
// set, and returns the set's runs, partition by partition in table order
// (a table's runs of one partition in the order they were made), for
// the Edit that installs them. A run that got no record is not among them.
// A run alone in its file is its whole file; the others are recorded with
// where the file holds them. On error every file is removed, as by Abort.
//
// A checkpoint's set (src storage.SrcCheckpoint) lays out the file it made
// last and leaves its final write and its sync to the Edit that installs
// its runs: the commit rides that write as the file's trailer, after every
// other file of the set is synced (see Edit.Write).
func (s *FileSet) Finish() ([]RunRef, error) {
	refs, err := s.finish()
	if err != nil {
		s.Abort()
	}
	return refs, err
}

func (s *FileSet) finish() ([]RunRef, error) {
	for slot, table := range s.tables {
		if !s.done[slot] {
			if err := s.Done(table, nil); err != nil {
				return nil, err
			}
		}
	}
	var files []*setFile
	for _, p := range slices.Sorted(maps.Keys(s.shared)) {
		files = append(files, s.shared[p])
	}
	for _, file := range append(files, s.apart...) {
		if file == s.last && s.src == storage.SrcCheckpoint {
			l, err := file.fw.Place()
			if err != nil {
				return nil, err
			}
			file.rf.pending, file.rf.layout = file.fw, l
			continue
		}
		if err := file.fw.Finish(); err != nil {
			return nil, err
		}
		err := file.rf.f.Close()
		file.rf.f = nil
		if err != nil {
			return nil, err
		}
	}
	runs := slices.DeleteFunc(slices.Clone(s.runs), func(b *RunBuilder) bool { return b.writer == nil })
	slices.SortStableFunc(runs, func(a, b *RunBuilder) int {
		return cmp.Or(cmp.Compare(a.partition, b.partition), cmp.Compare(a.slot, b.slot))
	})
	refs := make([]RunRef, len(runs))
	for i, b := range runs {
		refs[i] = b.ref()
	}
	return refs, nil
}

// Abort removes every file of the set, and the pages its runs wrote
// through to the cache. Call it instead of Finish once every stream has
// ended, or after Finish while no Edit has taken the set's runs (a merge
// that lost its race); calling it again does nothing.
func (s *FileSet) Abort() {
	for _, b := range s.runs {
		if b.writer != nil {
			s.db.cache.Drop(b.writer.CacheID())
		}
	}
	for _, file := range s.shared {
		s.db.removeFile(file.rf, s.src)
	}
	for _, file := range s.apart {
		s.db.removeFile(file.rf, s.src)
	}
	s.shared, s.apart, s.runs, s.last = nil, nil, nil, nil
}
