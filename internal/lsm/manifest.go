package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/storage"
)

// A version-5 manifest body is binary, every number a uvarint unless said
// otherwise:
//
//	CP, NextID
//	the file table: a count, then each run file's name once
//	a count of tables, then per table, by name:
//	    its name, its partition count, per partition a count of runs and
//	    each run (appendRun), then its deletion vector's file and count
//	the caller's section
//
// A name, a file and the section are a length and that many bytes.
const (
	// The flags byte of a run entry says which of its fields are there.
	runCPUnknown = 1 << iota // the run's CP window is not known
	runMinCP                 // MinCP, which is not the run's CP, follows
	runMaxCP                 // MaxCP, which is not the run's CP, follows
	runOverrides             // a non-zero Overrides follows
	runWhole                 // the run is its whole file: no At, the filter's place in the header
	runFirstPage             // FirstPage, which is not the one the run's place implies, follows
	runFlags     = runFirstPage<<1 - 1

	// minRunBytes is the fewest bytes a run entry takes: six numbers, the
	// flags, a header's six numbers and its filter CRC.
	minRunBytes = 6 + 1 + 6 + 4
)

// appendManifest appends m's version-5 body to buf. Every run entry carries
// its header (Write builds each from its run's reader).
func appendManifest(buf []byte, m *manifest) []byte {
	tables := slices.Sorted(maps.Keys(m.Tables))
	index := map[string]uint64{}
	var files []string
	for _, name := range tables {
		for _, runs := range m.Tables[name].Partitions {
			for _, rm := range runs {
				if _, ok := index[rm.Name]; !ok {
					index[rm.Name] = uint64(len(files))
					files = append(files, rm.Name)
				}
			}
		}
	}
	buf = binary.AppendUvarint(buf, m.CP)
	buf = binary.AppendUvarint(buf, m.NextID)
	buf = binary.AppendUvarint(buf, uint64(len(files)))
	for _, f := range files {
		buf = appendBytes(buf, []byte(f))
	}
	buf = binary.AppendUvarint(buf, uint64(len(tables)))
	for _, name := range tables {
		tm := m.Tables[name]
		buf = appendBytes(buf, []byte(name))
		buf = binary.AppendUvarint(buf, uint64(len(tm.Partitions)))
		for _, runs := range tm.Partitions {
			buf = binary.AppendUvarint(buf, uint64(len(runs)))
			for _, rm := range runs {
				buf = appendRun(buf, rm, index[rm.Name])
			}
		}
		buf = appendBytes(buf, []byte(tm.DVFile))
		buf = binary.AppendUvarint(buf, uint64(tm.DVCount))
	}
	return appendBytes(buf, m.Catalog)
}

// appendRun appends rm's entry, its file the file table's entry file: its
// file, level, record count, MinBlock and MaxBlock−MinBlock, its CP, the
// flags byte and the fields it calls for — MinCP, MaxCP, Overrides — then,
// for a run that shares its file, At (its pages' offset and length, its
// filter's offset and length), then the header it carries: format, record
// size, first leaf, leaf pages, levels, root page, the filter CRC as a
// little-endian u32 and for a run that is its whole file the filter's
// offset and length, and last its first page, if the flags call for it. The
// rest of the header is what the entry says already (runManifest.carry).
func appendRun(buf []byte, rm runManifest, file uint64) []byte {
	h := rm.Header
	var flags byte
	if rm.CPUnknown {
		flags |= runCPUnknown
	}
	if rm.MinCP != rm.CP {
		flags |= runMinCP
	}
	if rm.MaxCP != rm.CP {
		flags |= runMaxCP
	}
	if rm.Overrides != 0 {
		flags |= runOverrides
	}
	if rm.whole() {
		flags |= runWhole
	}
	if h.FirstPage != rm.firstPage(h.Format) {
		flags |= runFirstPage
	}
	for _, v := range []uint64{file, uint64(rm.Level), rm.Records, rm.MinBlock, rm.MaxBlock - rm.MinBlock, rm.CP} {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = append(buf, flags)
	for _, f := range []struct {
		flag byte
		v    uint64
	}{{runMinCP, rm.MinCP}, {runMaxCP, rm.MaxCP}, {runOverrides, rm.Overrides}} {
		if flags&f.flag != 0 {
			buf = binary.AppendUvarint(buf, f.v)
		}
	}
	if !rm.whole() {
		for _, v := range []int64{rm.Pages.Off, rm.Pages.Len, rm.Filter.Off, rm.Filter.Len} {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	for _, v := range []uint64{uint64(h.Format), uint64(h.RecordSize), h.LeafStart, h.LeafPages, uint64(h.Levels), h.RootPage} {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.LittleEndian.AppendUint32(buf, h.FilterCRC)
	if rm.whole() {
		buf = binary.AppendUvarint(buf, h.FilterOff)
		buf = binary.AppendUvarint(buf, h.FilterLen)
	}
	if flags&runFirstPage != 0 {
		buf = binary.AppendUvarint(buf, h.FirstPage)
	}
	return buf
}

func appendBytes(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// decodeManifest decodes a version-5 body. The bytes are a checksummed
// commit's, but no writer's promise: a count or a length past the bytes
// left, a field past its width, a truncated number, a deletion vector
// counted in no file (tableManifest.checkDV) and bytes after the section
// are errors, and no count sizes an allocation before it has been
// held against the bytes left.
func decodeManifest(body []byte) (manifest, error) {
	d := &bodyReader{b: body}
	m := manifest{Version: manifestVersion, CP: d.uvarint("the CP"), NextID: d.uvarint("the next ID"), Tables: map[string]tableManifest{}}
	files := make([]string, d.count("files", 1))
	for i := range files {
		files[i] = string(d.bytes("a file name"))
	}
	tables := d.count("tables", 4)
	for range tables {
		name := string(d.bytes("a table name"))
		if _, dup := m.Tables[name]; dup && d.err == nil {
			d.err = fmt.Errorf("table %q listed twice", name)
		}
		tm := tableManifest{Partitions: make([][]runManifest, d.count("partitions", 1))}
		for p := range tm.Partitions {
			runs := make([]runManifest, d.count("runs", minRunBytes))
			for i := range runs {
				runs[i] = d.run(files)
			}
			tm.Partitions[p] = runs
		}
		tm.DVFile = string(d.bytes("a deletion vector's file"))
		tm.DVCount = int(d.width("a deletion vector's count", math.MaxInt))
		if d.err == nil {
			d.err = tm.checkDV(name)
		}
		if d.err != nil {
			return manifest{}, d.err
		}
		m.Tables[name] = tm
	}
	if catalog := d.bytes("the section"); len(catalog) > 0 {
		m.Catalog = catalog
	}
	switch {
	case d.err != nil:
		return manifest{}, d.err
	case len(d.b) > 0:
		return manifest{}, fmt.Errorf("%d bytes after the section", len(d.b))
	}
	return m, nil
}

// run decodes a run entry (appendRun) whose file is an entry of files.
func (d *bodyReader) run(files []string) runManifest {
	file := d.uvarint("a run's file")
	if file >= uint64(len(files)) && d.err == nil {
		d.err = fmt.Errorf("a run in file %d of %d", file, len(files))
	}
	if d.err != nil {
		return runManifest{}
	}
	rm := runManifest{Name: files[file]}
	rm.Level = int(d.width("a run's level", math.MaxInt32))
	rm.Records = d.uvarint("a run's record count")
	rm.MinBlock = d.uvarint("a run's first block")
	if span := d.uvarint("a run's block span"); span > math.MaxUint64-rm.MinBlock && d.err == nil {
		d.err = fmt.Errorf("run %s spans %d blocks from block %d, past 64 bits", rm.Name, span, rm.MinBlock)
	} else {
		rm.MaxBlock = rm.MinBlock + span
	}
	rm.CP = d.uvarint("a run's CP")
	flags := d.byte("a run's flags")
	if flags&^runFlags != 0 && d.err == nil {
		d.err = fmt.Errorf("run %s has flags %#x", rm.Name, flags)
	}
	rm.CPUnknown = flags&runCPUnknown != 0
	rm.MinCP, rm.MaxCP = rm.CP, rm.CP
	if flags&runMinCP != 0 {
		rm.MinCP = d.uvarint("a run's MinCP")
	}
	if flags&runMaxCP != 0 {
		rm.MaxCP = d.uvarint("a run's MaxCP")
	}
	if flags&runOverrides != 0 {
		rm.Overrides = d.uvarint("a run's overrides")
	}
	if flags&runWhole == 0 {
		var at [4]int64
		for i := range at {
			at[i] = int64(d.width("a run's place", math.MaxInt64))
		}
		rm.Pages, rm.Filter = storage.Extent{Off: at[0], Len: at[1]}, storage.Extent{Off: at[2], Len: at[3]}
		if rm.whole() && d.err == nil {
			d.err = fmt.Errorf("run %s shares its file and is placed at nothing", rm.Name)
		}
	}
	var hw [6]uint64
	for i := range hw {
		hw[i] = d.uvarint("a run's header")
	}
	crc := d.u32("a run's filter CRC")
	var filter [2]uint64
	if flags&runWhole != 0 {
		filter = [2]uint64{d.uvarint("a run's filter offset"), d.uvarint("a run's filter length")}
	}
	var firstPage *uint64
	if flags&runFirstPage != 0 {
		fp := d.uvarint("a run's first page")
		firstPage = &fp
	}
	if d.err == nil {
		d.err = rm.carry(hw, crc, filter, firstPage)
	}
	return rm
}

// bodyReader reads a version-5 body. Its first error sticks: every read
// after it returns zero, so a decoder checks err once it is done with a
// part of the body.
type bodyReader struct {
	b   []byte
	err error
}

// uvarint reads the number what names.
func (d *bodyReader) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("%s: a truncated or overlong number", what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// width reads a number that must not exceed limit, the width of the field
// it goes to.
func (d *bodyReader) width(what string, limit uint64) uint64 {
	v := d.uvarint(what)
	if v > limit && d.err == nil {
		d.err = fmt.Errorf("%s is %d, past its width", what, v)
		return 0
	}
	return v
}

// count reads a count of what, things each of which takes at least size
// bytes, and refuses one that the bytes left cannot hold, before its caller
// sizes anything by it.
func (d *bodyReader) count(what string, size int) int {
	v := d.uvarint(what)
	if v > uint64(len(d.b)/size) && d.err == nil {
		d.err = fmt.Errorf("%d %s in %d bytes", v, what, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// bytes reads a length and that many bytes.
func (d *bodyReader) bytes(what string) []byte {
	n := d.uvarint(what)
	if n > uint64(len(d.b)) && d.err == nil {
		d.err = fmt.Errorf("%s of %d bytes in %d", what, n, len(d.b))
	}
	if d.err != nil {
		return nil
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

func (d *bodyReader) byte(what string) byte {
	if len(d.b) < 1 && d.err == nil {
		d.err = errors.New(what + ": truncated")
	}
	if d.err != nil {
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *bodyReader) u32(what string) uint32 {
	if len(d.b) < 4 && d.err == nil {
		d.err = errors.New(what + ": truncated")
	}
	if d.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// carry sets rm's header from what its entry carries, in either version:
// hw is the format, record size, first leaf, leaf pages, levels and root
// page, crc the filter CRC, filter a whole file's filter offset and length,
// and firstPage the first page the entry says, if it says one. The rest is
// what the entry says already: the record count is Records, and a run that
// shares its file has its filter's place and grid in At. A format-6 root's
// length is what the run's own pages leave it (btree.Header.WithOwnBytes):
// At's page length, or for a run that is its whole file the filter offset.
// A format-6 run may not say its first page: its place says it.
func (rm *runManifest) carry(hw [6]uint64, crc uint32, filter [2]uint64, firstPage *uint64) error {
	for _, i := range []int{0, 1, 4} {
		if hw[i] > math.MaxUint32 {
			return fmt.Errorf("run %s carries header field %d = %d, past 32 bits", rm.Name, i, hw[i])
		}
	}
	h := btree.Header{
		Format: btree.Format(hw[0]), RecordSize: int(hw[1]), Records: rm.Records,
		LeafStart: hw[2], LeafPages: hw[3], Levels: uint32(hw[4]), RootPage: hw[5], FilterCRC: crc,
		FirstPage: rm.firstPage(btree.Format(hw[0])),
	}
	if firstPage != nil {
		if h.Format == btree.FormatDelta {
			return fmt.Errorf("run %s is of format %d, whose place alone says whether its file holds its header, and starts at page %d", rm.Name, h.Format, *firstPage)
		}
		h.FirstPage = *firstPage
	}
	rm.Header = &h // before the grid, which the first page moves
	if rm.whole() {
		h.FilterOff, h.FilterLen = filter[0], filter[1]
		h = h.WithOwnBytes(int64(min(h.FilterOff, math.MaxInt64)))
	} else {
		h.FilterOff, h.FilterLen = uint64(rm.grid().Len), uint64(rm.Filter.Len)
		h = h.WithOwnBytes(rm.Pages.Len)
	}
	return nil
}

// CheckCommit reads the last commit back from the file that carries it and
// reports whether its body decodes to the manifest the DB holds, which is
// the one that commit encoded. Like CheckHeaders it is a scrub — one
// trailer read, unattributed — for a caller that has excluded structural
// operations.
func (db *DB) CheckCommit() error {
	if db.commit == "" {
		return nil
	}
	f, err := db.vfs.Open(db.commit)
	if err != nil {
		return err
	}
	defer f.Close()
	_, v, body, err := readTrailer(db.commit, f)
	if err != nil {
		return err
	}
	m, err := decodeCommit(db.commit, v, body)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(m, db.m) {
		return fmt.Errorf("lsm: the commit in %s decodes to\n%+v\nit encoded\n%+v", db.commit, m, db.m)
	}
	return nil
}
