package lsm

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"github.com/backlogfs/backlog/internal/bloom"
	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// FileSet builds the runs of one level and consistency point for a list of
// tables, one file per partition: a partition's runs are sections of its
// file, in the order of the list, each page-aligned with no padding between
// them, and their Bloom filters follow the last one's pages. The tables'
// records stream in side by side, each table through its own builders
// (Run). A run's pages go to the file as its write buffer fills — a later
// table's only once every earlier table is done (Done), since only then is
// it known where the run starts; until then its builder waits. Finish then
// writes what is still buffered, the filters and the headers, and syncs
// each file once: a file whose runs all fit their buffers is one write.
//
// The checkpoint flush writes its From, To and Combined runs through one
// set, so a consistency point costs one run file per partition plus the
// manifest; NewRunBuilder is a set of one table.
type FileSet struct {
	db     *DB
	level  int
	cp     uint64
	src    storage.Source
	tables []string

	mu    sync.Mutex
	cond  sync.Cond
	files map[int]*setFile // by partition, made by its first run
	done  []bool           // by table: its stream ended and its runs are sealed
	err   error            // the first failure, which waiting builders return
}

// setFile is one file of a FileSet.
type setFile struct {
	rf   *runFile // its handle is the write handle until the set's Finish
	fw   *btree.FileWriter
	runs []*RunBuilder // by table
}

// NewFileSet starts a set of run files for the given tables. Level 0 marks
// a per-CP flush; levels >= 1 compacted runs. All I/O the set issues —
// file creation, page writes, syncs, and removal on abort — is attributed
// to src. A checkpoint's runs (src storage.SrcCheckpoint) write their pages
// through to the page cache where the cache has room for them
// (btree.Writer.WriteThrough), so the queries and the merge that read a
// fresh run find it in memory. A merge's runs cache nothing: a merge's
// output is about as large as its inputs and mostly cold, and a merge
// inserts no page into the cache and evicts none, scan and output alike.
func (db *DB) NewFileSet(level int, cp uint64, src storage.Source, tables ...string) *FileSet {
	s := &FileSet{db: db, level: level, cp: cp, src: src, tables: tables,
		files: map[int]*setFile{}, done: make([]bool, len(tables))}
	s.cond.L = &s.mu
	return s
}

// Run returns a builder for table's run in partition, creating the
// partition's file on its first run. Call it once per (table, partition),
// from the goroutine that streams the table's records. expectRecords is an
// upper bound on the records the caller will add; it sizes the Bloom
// filter, which is shrunk to the keys actually added when the run is
// sealed.
func (s *FileSet) Run(table string, partition, expectRecords int) (*RunBuilder, error) {
	t, slot := s.db.tables[table], slices.Index(s.tables, table)
	if t == nil || slot < 0 {
		return nil, fmt.Errorf("lsm: no table %q in the file set", table)
	}
	if partition < 0 || partition >= s.db.opts.Partitions {
		return nil, fmt.Errorf("lsm: partition %d out of range", partition)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	file := s.files[partition]
	if file == nil {
		// A file of several tables' runs is named for the consistency
		// point it holds; a run that is its file of its own, for its table.
		prefix := "cp"
		if len(s.tables) == 1 {
			prefix = table
		}
		name := fmt.Sprintf("%s.p%03d.%010d.run", prefix, partition, s.db.allocID())
		f, err := s.db.vfsFor(s.src).Create(name)
		if err != nil {
			return nil, err
		}
		file = &setFile{rf: &runFile{name: name, f: f}, runs: make([]*RunBuilder, len(s.tables))}
		file.fw = btree.NewFileWriter(f, len(s.tables), s.wait)
		s.files[partition] = file
	}
	// Every run creation funnels through here — checkpoint flushes and
	// compaction — so the configured format covers them all.
	w, err := file.fw.Section(slot, t.spec.RecordSize, s.db.opts.RunFormat)
	if err != nil {
		return nil, err
	}
	if s.src == storage.SrcCheckpoint {
		w.WriteThrough(s.db.cache)
	}
	b := &RunBuilder{
		table:     t,
		partition: partition,
		set:       s,
		file:      file.rf,
		writer:    w,
		filter:    bloom.NewForCapacity(expectRecords, t.spec.BloomMaxBytes),
	}
	file.runs[slot] = b
	return b, nil
}

// wait blocks until every table before slot is done, or the set failed.
func (s *FileSet) wait(slot int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && slices.Contains(s.done[:slot], false) {
		s.cond.Wait()
	}
	return s.err
}

// Done ends table's stream. With err nil it seals the runs the stream
// started — their last pages, index levels and headers — after which the
// runs of later tables know where they start; with err, or when sealing
// fails, it fails the set, and builders waiting for their place give up
// with the error. Every table's stream ends in one Done, failed or not,
// and returns what it returns.
func (s *FileSet) Done(table string, err error) error {
	slot := slices.Index(s.tables, table)
	if err == nil {
		s.mu.Lock()
		var runs []*RunBuilder
		for _, file := range s.files {
			if b := file.runs[slot]; b != nil {
				runs = append(runs, b)
			}
		}
		s.mu.Unlock()
		for _, b := range runs {
			if err = b.seal(); err != nil {
				break
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && s.err == nil {
		s.err = err
	}
	s.done[slot] = err == nil
	s.cond.Broadcast()
	return err
}

// Finish writes and syncs every file of the set once every table is Done,
// and returns the set's runs, partition by partition in table order, for
// the Edit that installs them. A run alone in its file is its whole file;
// the others are recorded with where the file holds them. On error every
// file is removed, as by Abort.
func (s *FileSet) Finish() ([]RunRef, error) {
	refs, err := s.finish()
	if err != nil {
		s.Abort()
	}
	return refs, err
}

func (s *FileSet) finish() ([]RunRef, error) {
	if s.err != nil {
		return nil, s.err
	}
	var refs []RunRef
	for _, p := range slices.Sorted(maps.Keys(s.files)) {
		file := s.files[p]
		if err := file.fw.Finish(); err != nil {
			return nil, err
		}
		err := file.rf.f.Close()
		file.rf.f = nil
		if err != nil {
			return nil, err
		}
		runs := slices.DeleteFunc(slices.Clone(file.runs), func(b *RunBuilder) bool { return b == nil })
		for _, b := range runs {
			refs = append(refs, b.ref(len(runs) == 1))
		}
	}
	return refs, nil
}

// Abort removes every file of the set, and the pages its runs wrote
// through to the cache. Call it, instead of Finish, once every stream has
// ended; calling it again does nothing.
func (s *FileSet) Abort() {
	for _, file := range s.files {
		for _, b := range file.runs {
			if b != nil {
				s.db.cache.Drop(b.writer.CacheID())
			}
		}
		s.db.removeFile(file.rf, s.src)
	}
	s.files = nil
}
