// Mixed-format tests pin the migration story against the model
// (statemachine_test.go): a database full of raw or previous-format runs
// opens under the delta default, answers queries identically, and
// compaction rewrites it into current-format runs with no migration step.
package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// formatCounts tallies live runs by leaf format.
func formatCounts(eng *core.Engine) map[btree.Format]int {
	counts := map[btree.Format]int{}
	for _, ri := range eng.RunInfos() {
		counts[ri.Format]++
	}
	return counts
}

// queryFingerprint renders every block's full owner list into one
// deterministic string, so before/after states can be compared
// byte-for-byte rather than merely "same length".
func queryFingerprint(t *testing.T, eng *core.Engine, blocks int) string {
	t.Helper()
	var sb strings.Builder
	for b := uint64(0); b < uint64(blocks); b++ {
		owners, err := eng.Query(b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		lines := make([]string, 0, len(owners))
		for _, o := range owners {
			lines = append(lines, fmt.Sprintf("%d/%+v", b, o))
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestV1DatabaseCompactsIntoV2 builds a database with compression off
// (raw v1 runs), verifies it against the model, reopens it under
// the delta default — no migration step — and compacts it into v2 runs,
// asserting the query results stay byte-identical throughout.
func TestV1DatabaseCompactsIntoV2(t *testing.T) {
	const (
		workers = 3
		opsEach = 400
		blocks  = 160
		maxCP   = 6
	)
	fs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	m := newModel()

	eng, err := core.Open(core.Options{
		VFS:         fs,
		Catalog:     cat,
		Compression: core.CompressionNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams := hammerStreams(workers, opsEach, blocks, maxCP)
	for cp := uint64(1); cp <= maxCP; cp++ {
		for _, stream := range streams {
			for _, o := range stream {
				if o.cp == cp {
					o.applyTo(eng)
					m.apply(o)
				}
			}
		}
		fCheckpoint(t, eng, cp)
	}
	if n := formatCounts(eng)[btree.FormatDelta]; n != 0 {
		t.Fatalf("CompressionNone engine wrote %d delta runs", n)
	}
	m.check(t, eng, blocks)
	before := queryFingerprint(t, eng, blocks)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the default (delta) compression: the v1 runs must open
	// and answer queries with no migration step.
	eng, err = core.Open(core.Options{VFS: fs, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if n := formatCounts(eng)[btree.FormatRaw]; n == 0 {
		t.Fatal("reopened database has no raw runs to migrate")
	}
	if got := queryFingerprint(t, eng, blocks); got != before {
		t.Fatal("reopening under delta default changed query results")
	}

	// Compaction rewrites every partition; the output runs must be v2.
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	counts := formatCounts(eng)
	if counts[btree.FormatRaw] != 0 {
		t.Fatalf("raw runs survived compaction: %v", counts)
	}
	if counts[btree.FormatDelta] == 0 {
		t.Fatalf("compaction produced no delta runs: %v", counts)
	}
	m.check(t, eng, blocks)
	if got := queryFingerprint(t, eng, blocks); got != before {
		t.Fatal("compacting into v2 changed query results")
	}
}

// TestCorruptCompressedRunSurfacesErrCorrupt flips one byte inside a
// compressed run's first leaf page and asserts queries fail with
// btree.ErrCorrupt — never silently-wrong records.
func TestCorruptCompressedRunSurfacesErrCorrupt(t *testing.T) {
	const blocks = 200
	fs := storage.NewMemFS()
	eng, err := core.Open(core.Options{
		VFS:     fs,
		Catalog: core.NewMemCatalog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for b := uint64(0); b < blocks; b++ {
		eng.AddRef(core.Ref{Block: b, Inode: 7, Offset: b, Length: 1}, 3)
	}
	if err := eng.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	if n := formatCounts(eng)[btree.FormatDelta]; n == 0 {
		t.Fatal("no delta runs written")
	}

	// Flip a payload byte in page 1 (the first leaf) of every run file.
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, name := range names {
		if !strings.HasSuffix(name, ".run") {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		off := int64(storage.PageSize) + 100
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= 0x40
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		f.Close()
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no run files found")
	}
	eng.ClearCaches()

	sawCorrupt := false
	for b := uint64(0); b < blocks; b++ {
		owners, err := eng.Query(b)
		if err != nil {
			if !errors.Is(err, btree.ErrCorrupt) {
				t.Fatalf("block %d: error %v, want btree.ErrCorrupt", b, err)
			}
			sawCorrupt = true
			continue
		}
		// A block the torn page doesn't cover may still answer; what it
		// answers must be the truth.
		for _, o := range owners {
			if o.Inode != 7 || o.Offset != b {
				t.Fatalf("block %d: silently-wrong owner %+v", b, o)
			}
		}
	}
	if !sawCorrupt {
		t.Fatal("no query surfaced ErrCorrupt after corrupting every run")
	}
}

// v2StoreOps is the update history testdata/v3-store starts from, in
// order: 4 200 updates over 150 blocks and CPs 1..7, every third one a
// removal — alternately of the reference added five additions earlier,
// which mostly cancels within its CP, and of the oldest one still live once
// that is 700 additions old, which closes an interval opened at an earlier
// CP. The binary that wrote run format 2 and version-2 manifests applied
// them through the public API with a Buffered log: Checkpoint(cp) and a
// snapshot of line 0 after the last update of each of CPs 1..6, Compact
// after CP 4 — so its directory held level-1 runs and the level-0 runs of
// CPs 5 and 6, all in run format 2 — and Close right after the updates of
// CP 7, which therefore existed only in the log tail.
func v2StoreOps() []refOp {
	const n = 4200
	ops := make([]refOp, 0, n)
	var added []core.Ref
	var removed []bool
	oldest := 0 // first reference not yet removed
	for i := uint64(0); i < n; i++ {
		cp := 1 + i*7/n
		if i%3 == 2 {
			k := len(added) - 5
			if i%2 == 1 {
				for oldest < len(added) && removed[oldest] {
					oldest++
				}
				if k = oldest; len(added)-k < 700 {
					k = -1
				}
			}
			if k >= 0 && !removed[k] {
				removed[k] = true
				ops = append(ops, refOp{ref: added[k], cp: cp, remove: true})
				continue
			}
		}
		r := core.Ref{Block: i * 37 % 150, Inode: 1 + i%4, Offset: i, Length: 1 + i%2}
		added, removed = append(added, r), append(removed, false)
		ops = append(ops, refOp{ref: r, cp: cp})
	}
	return ops
}

// v3StoreTail is what testdata/v3-store holds beyond v2StoreOps. The
// binary that wrote version-3 manifests opened that directory as
// backlog.Open does, ran Checkpoint(7), applied these updates of CP 8
// through the Buffered log and closed, so they exist only in the log tail:
// forty new references, every fourth removed again in its CP, and the ten
// oldest references still live after CP 7 removed, closing their intervals.
func v3StoreTail() []refOp {
	var ops []refOp
	for i := uint64(0); i < 40; i++ {
		r := core.Ref{Block: i * 11 % 150, Inode: 5, Offset: 5000 + i, Length: 1}
		ops = append(ops, refOp{ref: r, cp: 8})
		if i%4 == 3 {
			ops = append(ops, refOp{ref: r, cp: 8, remove: true})
		}
	}
	removed := map[core.Ref]bool{}
	var added []core.Ref
	for _, o := range v2StoreOps() {
		if o.remove {
			removed[o.ref] = true
		} else {
			added = append(added, o.ref)
		}
	}
	closed := 0
	for _, r := range added {
		if !removed[r] && closed < 10 {
			ops = append(ops, refOp{ref: r, cp: 8, remove: true})
			closed++
		}
	}
	return ops
}

// v3StoreBlocks bounds the blocks testdata/v3-store holds references to.
const v3StoreBlocks = 150

// v3Store copies testdata/v3-store into a MemFS, and returns it with the
// model of what it holds and the log tail a reopen replays.
func v3Store(t *testing.T) (*storage.MemFS, *model, []refOp) {
	t.Helper()
	fs := storage.NewMemFS()
	entries, err := os.ReadDir(filepath.Join("testdata", "v3-store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join("testdata", "v3-store", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(b, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	m := newModel()
	for v := uint64(1); v <= 6; v++ {
		m.snapshot(0, v) // the catalog the manifest carries
	}
	for _, o := range v2StoreOps() {
		m.apply(o)
	}
	tail := v3StoreTail()
	for _, o := range tail {
		m.apply(o)
	}
	return fs, m, tail
}

// TestV3StoreMergesIntoOneFile: a whole merge of the store the previous
// binary wrote (testdata/v3-store, runs that are files of their own)
// writes its outputs as sections of one file, created and synced once,
// and the answers hold, across a reopen.
func TestV3StoreMergesIntoOneFile(t *testing.T) {
	fs, m, _ := v3Store(t)
	open := func() *core.Engine {
		t.Helper()
		eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: wal.Buffered})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	before := queryFingerprint(t, eng, v3StoreBlocks)
	if creates, syncs := mergeIO(t, eng, eng.Compact); creates != 1 || syncs != 1 {
		t.Fatalf("the merge created %d files and synced %d times, want 1 and 1", creates, syncs)
	}
	files := slices.DeleteFunc(eng.Files(), func(n string) bool { return strings.HasPrefix(n, "commit.") })
	if len(files) != 1 || !strings.HasPrefix(files[0], mergeFile) || eng.RunCount() < 2 {
		t.Fatalf("after the merge the manifest names %v for %d runs, want one merge file", files, eng.RunCount())
	}
	m.check(t, eng, v3StoreBlocks)
	if got := queryFingerprint(t, eng, v3StoreBlocks); got != before {
		t.Fatal("the merge changed query results")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = open()
	defer eng.Close()
	m.check(t, eng, v3StoreBlocks)
}

// TestV3CatalogThatIsNotACatalogIsCorrupt: a version-3 manifest is bare
// JSON with no checksum, so a flipped byte can leave its catalog section
// valid JSON that is no catalog. Open refuses it as lsm.ErrCorrupt, like
// any other manifest it cannot read.
func TestV3CatalogThatIsNotACatalogIsCorrupt(t *testing.T) {
	for _, sec := range []string{`{"lines":5}`, `[1]`, `"catalog"`} {
		fs, _, _ := v3Store(t)
		b, err := os.ReadFile(filepath.Join("testdata", "v3-store", "MANIFEST"))
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.LastIndex(b, []byte(`"catalog":`))
		if i < 0 {
			t.Fatal("the golden manifest has no catalog section")
		}
		b = append(b[:i:i], `"catalog":`+sec+`}`...)
		if err := fs.Remove("MANIFEST"); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create("MANIFEST")
		if err == nil {
			_, err = f.WriteAt(b, 0)
			f.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog()})
		if err == nil {
			eng.Close()
		}
		if !errors.Is(err, lsm.ErrCorrupt) {
			t.Fatalf("catalog section %s: Open returned %v, want lsm.ErrCorrupt", sec, err)
		}
	}
}

// TestV2StoreOpensAndMigrates is the upgrade path end to end for a store of
// format-2 runs: a directory the previous binary wrote (testdata/v3-store —
// format-2 delta runs at two levels beside the current format's runs of
// CP 7, snapshots in a version-3 manifest, a Buffered log tail; never
// regenerate it) opens as backlog.Open opens it, answers every query as
// the model does, checkpoints, and compacts into the current format with
// the answers unchanged, across a reopen.
func TestV2StoreOpensAndMigrates(t *testing.T) {
	const blocks = v3StoreBlocks
	fs, m, tail := v3Store(t)

	open := func() *core.Engine {
		t.Helper()
		eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: wal.Buffered})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	if got := eng.Stats().WALReplayed; got != uint64(len(tail)) {
		t.Fatalf("replayed %d records of the log tail, want %d", got, len(tail))
	}
	v2Levels := map[int]bool{}
	for _, ri := range eng.RunInfos() {
		if uint32(ri.Format) == 2 {
			v2Levels[ri.Level] = true
		}
	}
	if !v2Levels[0] || !v2Levels[1] {
		t.Fatalf("golden store's format-2 run levels: %v, want 0 and 1", v2Levels)
	}
	if counts := formatCounts(eng); counts[btree.Format(3)] == 0 {
		t.Fatalf("golden store's runs: %v, want CP 7's in format 3 beside the format-2 ones", counts)
	}
	// Every table holding format-2 runs gets a projection of its rewrite.
	for _, ri := range eng.RunInfos() {
		if uint32(ri.Format) != 2 {
			continue
		}
		est, err := eng.EstimateCompression(ri.Table)
		if err != nil {
			t.Fatal(err)
		}
		if est.Records == 0 || est.CompressedBytes < storage.PageSize || est.Ratio <= 1 {
			t.Fatalf("%s: projection %+v, want the format-2 runs' records in a smaller rewrite", ri.Table, est)
		}
	}
	m.check(t, eng, blocks)
	before := queryFingerprint(t, eng, blocks)

	// A checkpoint writes its runs in the current format next to the old
	// ones; the store answers from the mix. Its commit is the first in a
	// trailer, and removes the version-3 manifest.
	if err := eng.Checkpoint(8); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(); slices.Contains(names, "MANIFEST") {
		t.Fatalf("the first commit left the version-3 manifest: %v", names)
	}
	counts := formatCounts(eng)
	if counts[btree.FormatDelta] == 0 || counts[btree.Format(2)] == 0 || counts[btree.Format(3)] == 0 {
		t.Fatalf("after the checkpoint: %v, want format-2, format-3 and current-format runs side by side", counts)
	}
	m.check(t, eng, blocks)

	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] == 0 {
		t.Fatalf("after compaction: %v, want only current-format delta runs", counts)
	}
	m.check(t, eng, blocks)
	if got := queryFingerprint(t, eng, blocks); got != before {
		t.Fatal("compacting into the current format changed query results")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	opened := 0
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Name == "MANIFEST" {
			opened++
		}
		return nil
	}})
	eng = open()
	fs.SetFailurePlan(storage.FailurePlan{})
	defer eng.Close()
	if opened != 0 {
		t.Fatalf("the reopen made %d calls on MANIFEST, want none", opened)
	}
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] == 0 {
		t.Fatalf("after the reopen: %v", counts)
	}
	m.check(t, eng, blocks)
	if got := queryFingerprint(t, eng, blocks); got != before {
		t.Fatal("reopening the migrated store changed query results")
	}
}

// TestCorruptLeafUnderCompaction damages a leaf so that its checksum still
// passes — the second half of the record stream zeroed, which decodes as
// records that repeat their predecessor — and compacts over it. A merge
// reads current-format leaves once, validating them as it streams, so the
// damage surfaces partway through a page: the compaction must fail with
// btree.ErrCorrupt and leave the run set and the directory as they were.
func TestCorruptLeafUnderCompaction(t *testing.T) {
	fs := storage.NewMemFS()
	eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for cp := uint64(1); cp <= 2; cp++ {
		for b := uint64(0); b < 500; b++ {
			eng.AddRef(core.Ref{Block: b, Inode: cp, Offset: b, Length: 1}, cp)
		}
		if err := eng.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	runFiles := func() []string {
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		var runs []string
		for _, name := range names {
			if strings.HasSuffix(name, ".run") {
				runs = append(runs, name)
			}
		}
		return runs
	}
	before := runFiles()
	if len(before) < 2 {
		t.Fatalf("run files before the merge: %v", before)
	}

	f, err := fs.Open(before[0])
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, storage.PageSize)
	if _, err := f.ReadAt(page, storage.PageSize); err != nil {
		t.Fatal(err)
	}
	used := bytes.LastIndexFunc(page[:storage.PageSize-4], func(r rune) bool { return r != 0 })
	clear(page[used/2 : storage.PageSize-4])
	binary.LittleEndian.PutUint32(page[storage.PageSize-4:],
		crc32.Checksum(page[:storage.PageSize-4], crc32.MakeTable(crc32.Castagnoli)))
	if _, err := f.WriteAt(page, storage.PageSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	eng.ClearCaches()

	if err := eng.Compact(); !errors.Is(err, btree.ErrCorrupt) {
		t.Fatalf("Compact over a malformed leaf: %v, want btree.ErrCorrupt", err)
	}
	if after := runFiles(); !reflect.DeepEqual(after, before) {
		t.Fatalf("run files after the failed merge: %v, before it %v", after, before)
	}
	for _, ri := range eng.RunInfos() {
		if ri.Level != 0 {
			t.Fatalf("a level-%d run was installed by the failed merge: %+v", ri.Level, ri)
		}
	}
}

// v3RunsStore copies testdata/v3runs-store into a MemFS and returns it with
// the answers committed beside it (testdata/v3runs-store.answers): for
// every 7th block below 200, one line per owner Query returned — block,
// inode, offset, line, length, from, to, versions — sorted. The binary
// that wrote run format 3 made the store through the public API in
// CheckpointOnly mode with two partitions of 100 blocks: 3 000 updates
// over CPs 1..6, every 5th and every 5th-but-2 a removal of an earlier
// reference (i*7919 modulo the references added), a snapshot of line 0
// after Checkpoint(3), one MaintainNow after Checkpoint(5), then
// Checkpoint(6) and Close — so every run in it is format 3, at levels 0
// and 1. Never regenerate it.
func v3RunsStore(t *testing.T) (*storage.MemFS, string) {
	t.Helper()
	fs := storage.NewMemFS()
	dir := filepath.Join("testdata", "v3runs-store")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(ent.Name())
		if err == nil {
			_, err = f.WriteAt(b, 0)
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	answers, err := os.ReadFile(filepath.Join("testdata", "v3runs-store.answers"))
	if err != nil {
		t.Fatal(err)
	}
	return fs, string(answers)
}

// v3RunsAnswers renders what eng answers for the blocks
// testdata/v3runs-store.answers covers, as that file does.
func v3RunsAnswers(t *testing.T, eng *core.Engine) string {
	t.Helper()
	var sb strings.Builder
	for b := uint64(0); b < 200; b += 7 {
		owners, err := eng.Query(b)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, o := range owners {
			lines = append(lines, fmt.Sprintf("%d %d %d %d %d %d %d %v", b, o.Inode, o.Offset, o.Line, o.Length, o.From, o.To, o.Versions))
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l + "\n")
		}
	}
	return sb.String()
}

// TestV3RunsMigrate is the format horizon end to end, under PolicyFull
// and under PolicyLeveled with RetainLive: a store whose every run is
// format 3 (testdata/v3runs-store) opens and answers as it did when it was
// written; one MaintainNow — which has no merge to make under either
// policy, the store holding four runs a partition over two levels —
// rewrites every run into the current format at its level, with its
// records and CP window, and the answers hold; a second MaintainNow finds
// nothing to do and installs nothing; and the store reopens migrated.
func TestV3RunsMigrate(t *testing.T) {
	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"leveled-retainlive", core.Options{CompactionPolicy: core.PolicyLeveled{}, Retention: core.RetainLive}},
	} {
		t.Run(c.name, func(t *testing.T) { v3RunsMigrate(t, c.opts) })
	}
}

func v3RunsMigrate(t *testing.T, opts core.Options) {
	fs, want := v3RunsStore(t)
	open := func() *core.Engine {
		t.Helper()
		o := opts
		o.VFS, o.Catalog, o.Partitions, o.PartitionSpan = fs, core.NewMemCatalog(), 2, 100
		eng, err := core.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	before := eng.RunInfos()
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.Format(3)] != len(before) || len(before) == 0 {
		t.Fatalf("golden store's runs: %v, want format 3 only", counts)
	}
	if got := v3RunsAnswers(t, eng); got != want {
		t.Fatalf("the golden store answers\n%s\nwant\n%s", got, want)
	}

	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	after := eng.RunInfos()
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] != len(before) {
		t.Fatalf("after MaintainNow: %v, want its %d runs in the current format", counts, len(before))
	}
	if got := eng.MaintenanceStats().AutoCompactions; got != uint64(len(before)) {
		t.Fatalf("MaintainNow installed %d jobs, want a rewrite per run (%d)", got, len(before))
	}
	window := func(ri lsm.RunInfo) string {
		return fmt.Sprintf("%s p%d L%d %d records, CP %d..%d known=%v, %d overrides",
			ri.Table, ri.Partition, ri.Level, ri.Records, ri.MinCP, ri.MaxCP, ri.CPWindowKnown, ri.Overrides)
	}
	var was, is []string
	for i := range before {
		was, is = append(was, window(before[i])), append(is, window(after[i]))
	}
	slices.Sort(was)
	slices.Sort(is)
	if !slices.Equal(was, is) {
		t.Fatalf("the rewrite moved runs:\n%v\nwas\n%v", is, was)
	}
	if got := v3RunsAnswers(t, eng); got != want {
		t.Fatalf("after MaintainNow the store answers\n%s\nwant\n%s", got, want)
	}

	files := eng.Files()
	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	if got := eng.MaintenanceStats(); got.AutoCompactions != uint64(len(before)) || got.PendingJobs != 0 || !slices.Equal(eng.Files(), files) {
		t.Fatalf("a second MaintainNow: %+v, files %v (were %v), want nothing installed", got, eng.Files(), files)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = open()
	defer eng.Close()
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] != len(before) {
		t.Fatalf("after the reopen: %v", counts)
	}
	if got := v3RunsAnswers(t, eng); got != want {
		t.Fatalf("the migrated store answers\n%s\nwant\n%s", got, want)
	}
}

// TestV2StoreMigratesOnItsFirstMaintain: the store of format-2 and
// format-3 runs an earlier binary wrote (testdata/v3-store) leaves its first
// MaintainNow in the current format alone, answering as the model does,
// and a second MaintainNow installs nothing.
func TestV2StoreMigratesOnItsFirstMaintain(t *testing.T) {
	fs, m, _ := v3Store(t)
	eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: wal.Buffered})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	runs := len(eng.RunInfos())
	if got := eng.MaintenanceStats().PendingJobs; got != runs {
		t.Fatalf("%d jobs pending over %d runs of older formats, want one rewrite each", got, runs)
	}
	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] != runs {
		t.Fatalf("after the first MaintainNow: %v, want its %d runs in the current format", counts, runs)
	}
	m.check(t, eng, v3StoreBlocks)
	installed := eng.MaintenanceStats().AutoCompactions
	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	if got := eng.MaintenanceStats(); got.AutoCompactions != installed || got.PendingJobs != 0 {
		t.Fatalf("a second MaintainNow: %+v, want nothing installed after %d", got, installed)
	}
}
