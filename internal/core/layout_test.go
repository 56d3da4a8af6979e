// Tests of the bytes a run file holds: in format 6 only the first section
// of a file keeps a header, at its used length, and no section's last page
// is padded.
package core_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

const (
	// runHeaderMagic begins every run header.
	runHeaderMagic = "BKRUN1\x00\x00"
	// shortHeader is a format-6 header: 72 bytes of fixed fields, the
	// root's length and the CRC.
	shortHeader = 80
)

// checkNoPadding holds the run file name against the runs eng lists in it
// and returns their tables, in the file's section order. The file's bytes
// must be exactly its first section's short header, then each section's
// pages — 4 KiB for every page with a successor, its root at its length —
// then the runs' filters, then the commit trailer if the file carries one.
// The file holds one header, at offset 0; every section after the first
// starts with its first leaf; every root ends at its checksum; and the
// file opened whole reads as its first section.
func checkNoPadding(t *testing.T, fs *storage.MemFS, eng *core.Engine, name string) (tables []string) {
	t.Helper()
	db := eng.DB()
	var heads []btree.Header
	var records []uint64
	for _, table := range []string{core.TableFrom, core.TableTo, core.TableCombined} {
		for p := range db.Partitions() {
			for _, r := range db.Table(table).Runs(p) {
				if r.Name() == name {
					tables, heads, records = append(tables, table), append(heads, r.Header()), append(records, r.Records())
				}
			}
		}
	}
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	pages, filters := int64(shortHeader), int64(0)
	for i, h := range heads {
		if h.Format != btree.FormatDelta || h.FirstPage != min(uint64(i), 1) || h.RootLen == 0 || h.RootLen >= storage.PageSize {
			t.Fatalf("%s: section %d (%s) has header %+v: want format 6, its header in the file for the first section alone, a root shorter than a page", name, i, tables[i], h)
		}
		root := pages + int64(h.RootPage-1)*storage.PageSize // leaves 1..L, index pages L+1..root
		if end := root + int64(h.RootLen); end > size || binary.LittleEndian.Uint32(b[end-4:]) != crc32.Checksum(b[root:end-4], crc32.MakeTable(crc32.Castagnoli)) {
			t.Fatalf("%s: section %d (%s) has no root of %d bytes at %d ending at its checksum", name, i, tables[i], h.RootLen, root)
		}
		pages = root + int64(h.RootLen)
		filters += int64(h.FilterLen)
	}
	if size != pages+filters {
		// The commit rides the file: its footer says where the pages and
		// the filters end.
		footer := b[size-32:]
		le := binary.LittleEndian
		if string(footer[:8]) != "BKCOMMIT" || int64(le.Uint64(footer[8:])) != pages || int64(le.Uint64(footer[16:])) != pages+filters {
			t.Fatalf("%s: %d bytes for %d of header and pages and %d of filters of runs %v, and no trailer after them", name, size, pages, filters, tables)
		}
	}
	if !bytes.HasPrefix(b, []byte(runHeaderMagic)) || bytes.Count(b[:pages], []byte(runHeaderMagic)) != 1 {
		t.Fatalf("%s: %d run headers in the pages, want one at 0", name, bytes.Count(b[:pages], []byte(runHeaderMagic)))
	}
	whole, err := btree.Open(f, nil)
	if err != nil {
		t.Fatalf("%s opened whole: %v", name, err)
	}
	if h := whole.Header(); whole.RecordCount() != records[0] || h.RootPage != heads[0].RootPage || h.RootLen != heads[0].RootLen || h.FilterOff != uint64(pages) {
		t.Fatalf("%s opened whole: header %+v, want the %s run's claiming every byte before the filters", name, h, tables[0])
	}
	return tables
}

// TestRunFilesHoldNoPadding: in a store of format-6 runs a checkpoint of
// From and To, one of From, To and Combined, one of To and Combined (its
// first slot empty) and a whole merge each write one file that pads
// nothing — a short header, its first section's, every page with a
// successor 4 KiB, every root at its length, then the filters — and opens
// whole as its first section; the store answers as the model does across a
// reopen.
func TestRunFilesHoldNoPadding(t *testing.T) {
	fx := newMergeFixture(t, core.Options{})
	const dead, moved = fixtureBlocks + 2, fixtureBlocks + 3 // a block whose one reference dies, and its new place
	seen := map[string]bool{}
	step := func(do func()) {
		t.Helper()
		before := fx.eng.Files()
		do()
		for _, name := range fx.eng.Files() {
			if strings.HasSuffix(name, ".run") && !slices.Contains(before, name) {
				seen[strings.Join(checkNoPadding(t, fx.fs, fx.eng, name), "+")] = true
			}
		}
	}
	checkpoint := func(cp uint64) {
		t.Helper()
		fx.m.snapshot(0, cp)
		if err := fx.cat.CreateSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
		if err := fx.eng.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	ref := func(block, inode uint64) core.Ref {
		return core.Ref{Block: block, Inode: inode, Offset: block, Length: 1}
	}
	step(func() {
		for b := uint64(0); b < fixtureBlocks; b++ {
			fx.apply(refOp{ref: ref(b, 11), cp: 1})
		}
		fx.apply(refOp{ref: ref(dead, 99), cp: 1})
		checkpoint(1)
	})
	step(func() { // From and To
		for b := uint64(0); b < fixtureBlocks; b++ {
			fx.apply(refOp{ref: ref(b, 12), cp: 2})
			if b%2 == 0 {
				fx.apply(refOp{ref: ref(b, 11), cp: 2, remove: true})
			}
		}
		fx.apply(refOp{ref: ref(dead, 99), cp: 2, remove: true})
		checkpoint(2)
	})
	step(func() { // a whole merge: From and Combined
		if err := fx.eng.Compact(); err != nil {
			t.Fatal(err)
		}
	})
	step(func() { // From, To and Combined: block 2 moves its live and completed references
		for b := uint64(0); b < fixtureBlocks; b++ {
			fx.apply(refOp{ref: ref(b, 13), cp: 3})
			if b%4 == 1 {
				fx.apply(refOp{ref: ref(b, 12), cp: 3, remove: true})
			}
		}
		fx.m.relocate(2, fixtureBlocks)
		if err := fx.eng.RelocateBlock(2, fixtureBlocks); err != nil {
			t.Fatal(err)
		}
		checkpoint(3)
	})
	step(func() { // To and Combined: no reference added, and the dead block's interval moves
		for b := uint64(1); b < fixtureBlocks; b += 4 {
			fx.apply(refOp{ref: ref(b, 13), cp: 4, remove: true})
		}
		fx.m.relocate(dead, moved)
		if err := fx.eng.RelocateBlock(dead, moved); err != nil {
			t.Fatal(err)
		}
		checkpoint(4)
	})
	for _, want := range []string{"from+to", "from+combined", "from+to+combined", "to+combined"} {
		if !seen[want] {
			t.Fatalf("run files of sections %v were written, want one of %s", seen, want)
		}
	}
	fx.m.check(t, fx.eng, moved+1)
	if err := fx.eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(core.Options{VFS: fx.fs, Catalog: core.NewMemCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.DB().CheckHeaders(); err != nil {
		t.Fatal(err)
	}
	fx.m.check(t, eng, moved+1)
}
