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
	"sync/atomic"
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

	// Flip a payload byte in page 1 (the first leaf) of every run file,
	// which starts after the file's 80-byte header.
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
		off := int64(100)
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

// v2StoreOps is the update history of the stores earlier binaries wrote
// (testdata/v4manifest-store and testdata/v3manifest-store; the program in
// testdata/writefixture made both through the public API), in order: 4 200
// updates over 150 blocks and CPs 1..7, every third one a removal —
// alternately of the reference added five additions earlier, which mostly
// cancels within its CP, and of the oldest one still live once that is 700
// additions old, which closes an interval opened at an earlier CP. The
// writer took Checkpoint(cp) and a snapshot of line 0 after the last update
// of each of CPs 1..6, a Compact after CP 4 — so the stores hold level-1
// runs and the level-0 runs of later CPs — moved block relocFrom to relocTo
// just before Checkpoint(5), and took Checkpoint(7).
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

// v3StoreTail is what a store with a log holds beyond v2StoreOps: the
// writer applied these updates of CP 8 through the Buffered log after
// Checkpoint(7) and closed, so they exist only in the log tail — forty new
// references, every fourth removed again in its CP, and the ten oldest
// references still live after CP 7 removed, closing their intervals.
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

const (
	// relocFrom and relocTo are the stores' one relocation, just before
	// Checkpoint(5). No update names relocTo; a later update of a
	// reference the relocation moved names it instead of relocFrom.
	relocFrom = 7
	relocTo   = 157
	// earlierStoreBlocks bounds the blocks the stores hold references to.
	earlierStoreBlocks = 160
)

// writerModel returns the model of what the writer of the stores applied —
// with the log tail of CP 8 for testdata/v4manifest-store, without it for
// testdata/v3manifest-store — and that tail as the writer logged it.
func writerModel(withTail bool) (*model, []refOp) {
	ops := v2StoreOps()
	if withTail {
		ops = append(ops, v3StoreTail()...)
	}
	moved := map[core.Ref]bool{}
	for _, o := range ops {
		if o.cp <= 5 && o.ref.Block == relocFrom {
			moved[o.ref] = true
		}
	}
	m := newModel()
	for v := uint64(1); v <= 6; v++ {
		m.snapshot(0, v) // the catalog the manifest carries
	}
	var tail []refOp
	for i, o := range ops {
		if o.cp > 5 && ops[i-1].cp <= 5 {
			m.relocate(relocFrom, relocTo)
		}
		if moved[o.ref] {
			o.ref.Block = relocTo
		}
		m.apply(o)
		if o.cp == 8 {
			tail = append(tail, o)
		}
	}
	return m, tail
}

// earlierStore copies testdata/<name>, a store an earlier binary wrote,
// into a MemFS and returns it with the answers committed beside it
// (testdata/<name>.answers): for the blocks it covers, one line per owner
// the writer's Query returned — block, inode, offset, line, length, from,
// to, versions — sorted. Never regenerate either.
func earlierStore(t *testing.T, name string) (*storage.MemFS, string) {
	t.Helper()
	fs := storage.NewMemFS()
	dir := filepath.Join("testdata", name)
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
	answers, err := os.ReadFile(filepath.Join("testdata", name+".answers"))
	if err != nil {
		t.Fatal(err)
	}
	return fs, string(answers)
}

// storeAnswers renders what eng answers for every step-th block below n,
// as an earlier store's .answers file does.
func storeAnswers(t *testing.T, eng *core.Engine, n, step uint64) string {
	t.Helper()
	var sb strings.Builder
	for b := uint64(0); b < n; b += step {
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

// checkEarlierStore compares what eng answers with the model and with the
// writer's answers.
func checkEarlierStore(t *testing.T, eng *core.Engine, m *model, want string) {
	t.Helper()
	m.check(t, eng, earlierStoreBlocks)
	if got := storeAnswers(t, eng, earlierStoreBlocks, 1); got != want {
		t.Fatalf("the store answers\n%s\nits writer answered\n%s", got, want)
	}
}

// TestV3StoreMergesIntoOneFile: a whole merge of the store the binary that
// wrote version-3 manifests made (testdata/v3manifest-store, runs that are
// files of their own) writes its outputs as sections of one file, created
// and synced once, and the answers hold, across a reopen.
func TestV3StoreMergesIntoOneFile(t *testing.T) {
	fs, want := earlierStore(t, "v3manifest-store")
	m, _ := writerModel(false)
	open := func() *core.Engine {
		t.Helper()
		eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog()})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	checkEarlierStore(t, eng, m, want)
	if creates, syncs := mergeIO(t, eng, eng.Compact); creates != 1 || syncs != 1 {
		t.Fatalf("the merge created %d files and synced %d times, want 1 and 1", creates, syncs)
	}
	files := slices.DeleteFunc(eng.Files(), func(n string) bool { return strings.HasPrefix(n, "commit.") })
	if len(files) != 1 || !strings.HasPrefix(files[0], mergeFile) || eng.RunCount() < 2 {
		t.Fatalf("after the merge the manifest names %v for %d runs, want one merge file", files, eng.RunCount())
	}
	checkEarlierStore(t, eng, m, want)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = open()
	defer eng.Close()
	checkEarlierStore(t, eng, m, want)
}

// TestV3CatalogThatIsNotACatalogIsCorrupt: a version-3 manifest is bare
// JSON with no checksum, so a flipped byte can leave its catalog section
// valid JSON that is no catalog. Open refuses it as lsm.ErrCorrupt, like
// any other manifest it cannot read.
func TestV3CatalogThatIsNotACatalogIsCorrupt(t *testing.T) {
	for _, sec := range []string{`{"lines":5}`, `[1]`, `"catalog"`} {
		fs, _ := earlierStore(t, "v3manifest-store")
		b, err := os.ReadFile(filepath.Join("testdata", "v3manifest-store", "MANIFEST"))
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

// TestV4ManifestStoreOpensAndMigrates is the upgrade path end to end for
// the store the last binary to write an enveloped MANIFEST made
// (testdata/v4manifest-store: format-3 runs at two levels, deletion vectors
// of its relocation, snapshots in a version-4 manifest, a Buffered log tail
// in log format 4): it opens as backlog.Open opens it, answers every query
// as the model and its writer do, checkpoints, and compacts into the
// current format with the answers unchanged, across a reopen.
func TestV4ManifestStoreOpensAndMigrates(t *testing.T) {
	fs, want := earlierStore(t, "v4manifest-store")
	m, tail := writerModel(true)
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
	v3Levels := map[int]bool{}
	for _, ri := range eng.RunInfos() {
		if uint32(ri.Format) == 3 {
			v3Levels[ri.Level] = true
		}
	}
	if !v3Levels[0] || !v3Levels[1] {
		t.Fatalf("golden store's format-3 run levels: %v, want 0 and 1", v3Levels)
	}
	// Every table holding format-3 runs gets a projection of its rewrite.
	for _, ri := range eng.RunInfos() {
		est, err := eng.EstimateCompression(ri.Table)
		if err != nil {
			t.Fatal(err)
		}
		if est.Records == 0 || est.CompressedBytes <= 0 || est.Ratio <= 1 {
			t.Fatalf("%s: projection %+v, want the format-3 runs' records in a smaller rewrite", ri.Table, est)
		}
	}
	checkEarlierStore(t, eng, m, want)

	// A checkpoint writes its runs in the current format next to the old
	// ones; the store answers from the mix. Its commit is the first in a
	// trailer, and removes the legacy manifest.
	if err := eng.Checkpoint(8); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(); slices.Contains(names, "MANIFEST") {
		t.Fatalf("the first commit left the legacy manifest: %v", names)
	}
	counts := formatCounts(eng)
	if counts[btree.FormatDelta] == 0 || counts[btree.Format(3)] == 0 {
		t.Fatalf("after the checkpoint: %v, want format-3 and current-format runs side by side", counts)
	}
	checkEarlierStore(t, eng, m, want)

	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] == 0 {
		t.Fatalf("after compaction: %v, want only current-format delta runs", counts)
	}
	checkEarlierStore(t, eng, m, want)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng = openNotingManifest(t, fs, open)
	defer eng.Close()
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] == 0 {
		t.Fatalf("after the reopen: %v", counts)
	}
	checkEarlierStore(t, eng, m, want)
}

// openNotingManifest reopens a store whose first commit is made and fails
// the test if the open makes any call on a legacy manifest.
func openNotingManifest(t *testing.T, fs *storage.MemFS, open func() *core.Engine) *core.Engine {
	t.Helper()
	var calls atomic.Int64
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if strings.HasPrefix(c.Name, "MANIFEST") {
			calls.Add(1)
		}
		return nil
	}})
	eng := open()
	fs.SetFailurePlan(storage.FailurePlan{})
	if n := calls.Load(); n != 0 {
		eng.Close()
		t.Fatalf("the reopen made %d calls on a legacy manifest, want none", n)
	}
	return eng
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
	leaf := firstLeaf(t, eng, before[0])
	page := make([]byte, leaf.Len)
	if _, err := f.ReadAt(page, leaf.Off); err != nil {
		t.Fatal(err)
	}
	end := len(page) - 4
	used := bytes.LastIndexFunc(page[:end], func(r rune) bool { return r != 0 })
	clear(page[used/2 : end])
	binary.LittleEndian.PutUint32(page[end:], crc32.Checksum(page[:end], crc32.MakeTable(crc32.Castagnoli)))
	if _, err := f.WriteAt(page, leaf.Off); err != nil {
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

// firstLeaf returns where the run file name holds the first leaf of its
// first section, the one whose header the file holds: 4 KB, or the run's
// root cut to its length when the run has one leaf.
func firstLeaf(t *testing.T, eng *core.Engine, name string) storage.Extent {
	t.Helper()
	db := eng.DB()
	for _, table := range []string{core.TableFrom, core.TableTo, core.TableCombined} {
		for p := range db.Partitions() {
			for _, r := range db.Table(table).Runs(p) {
				if h := r.Header(); r.Name() == name && h.FirstPage == 0 {
					return h.PageExtent(h.LeafStart)
				}
			}
		}
	}
	t.Fatalf("no run of %s holds its header", name)
	return storage.Extent{}
}

// TestV3RunsMigrate is the format horizon end to end, under PolicyFull
// and under PolicyLeveled with RetainLive: a store whose every run is
// format 3 (testdata/v3runs-store) opens and answers as it did when it was
// written (testdata/v3runs-store.answers, every 7th block below 200); one MaintainNow — which has no merge to make under either
// policy, the store holding four runs a partition over two levels —
// rewrites every run into the current format at its level, with its
// records and CP window, and the answers hold; a second MaintainNow finds
// nothing to do and installs nothing; and the store reopens migrated. The
// binary that wrote run format 3 made the store through the public API in
// CheckpointOnly mode with two partitions of 100 blocks: 3 000 updates
// over CPs 1..6, every 5th and every 5th-but-2 a removal of an earlier
// reference (i*7919 modulo the references added), a snapshot of line 0
// after Checkpoint(3), one MaintainNow after Checkpoint(5), then
// Checkpoint(6) and Close — so every run in it is format 3, at levels 0
// and 1.
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
	fs, want := earlierStore(t, "v3runs-store")
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
	if got := storeAnswers(t, eng, 200, 7); got != want {
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
	if got := storeAnswers(t, eng, 200, 7); got != want {
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
	if got := storeAnswers(t, eng, 200, 7); got != want {
		t.Fatalf("the migrated store answers\n%s\nwant\n%s", got, want)
	}
}

// TestEarlierStoresMigrateOnTheirFirstMaintain: each store an earlier
// binary wrote — format-5 or format-4 runs under a commit trailer, or
// format-3 runs under a legacy manifest — opens with the model's answers
// and its writer's; its first MaintainNow leaves it in the current format
// (6) alone, with the answers unchanged, and a second installs nothing; the
// Close after them commits, which removes a legacy manifest, and the store
// reopens with no call on one and answers as before.
func TestEarlierStoresMigrateOnTheirFirstMaintain(t *testing.T) {
	for _, c := range []struct {
		store string
		mode  wal.Durability
	}{
		{"v5runs-store", wal.Buffered},
		{"v4runs-store", wal.Buffered},
		{"v4manifest-store", wal.Buffered},
		{"v3manifest-store", wal.CheckpointOnly},
	} {
		t.Run(c.store, func(t *testing.T) {
			fs, want := earlierStore(t, c.store)
			m, _ := writerModel(c.mode != wal.CheckpointOnly)
			open := func() *core.Engine {
				t.Helper()
				eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: c.mode})
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			eng := open()
			checkEarlierStore(t, eng, m, want)
			if got := eng.MaintenanceStats().PendingJobs; got == 0 {
				t.Fatal("no job pending over runs of an older format")
			}
			if err := eng.MaintainNow(); err != nil {
				t.Fatal(err)
			}
			if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] == 0 || btree.FormatDelta != 6 {
				t.Fatalf("after the first MaintainNow: %v, want format-6 runs alone", counts)
			}
			checkEarlierStore(t, eng, m, want)
			installed, files := eng.MaintenanceStats().AutoCompactions, eng.Files()
			if err := eng.MaintainNow(); err != nil {
				t.Fatal(err)
			}
			if got := eng.MaintenanceStats(); got.AutoCompactions != installed || got.PendingJobs != 0 || !slices.Equal(eng.Files(), files) {
				t.Fatalf("a second MaintainNow: %+v, files %v (were %v), want nothing installed after %d", got, eng.Files(), files, installed)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			names, err := fs.List()
			if err != nil {
				t.Fatal(err)
			}
			if slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, "MANIFEST") }) {
				t.Fatalf("the first commit left the legacy manifest: %v", names)
			}
			eng = openNotingManifest(t, fs, open)
			defer eng.Close()
			if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] == 0 {
				t.Fatalf("after the reopen: %v", counts)
			}
			checkEarlierStore(t, eng, m, want)
		})
	}
}

// TestCompressionProjectsTheRewrite: a table's projection
// (EstimateCompression) is the page bytes a maintenance pass writes for the
// table's records: one file per partition, the tables its sections, the
// header the first section's alone. On a copy of testdata/v4runs-store,
// every run of which is format 4, MaintainNow merges the partition whole —
// nine runs, over FullThreshold — which joins From and To records into
// Combined, so what it writes is held against the projection of the
// records it wrote: each table's projection is its new runs' records and
// bytes less their filters, the Combined section's without a header.
func TestCompressionProjectsTheRewrite(t *testing.T) {
	fs, _ := earlierStore(t, "v4runs-store")
	eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: wal.Buffered})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tables := []string{core.TableFrom, core.TableTo, core.TableCombined}
	for _, table := range tables {
		if est, err := eng.EstimateCompression(table); err != nil || est.Records == 0 || est.Ratio <= 1 {
			t.Fatalf("%s: projection %+v (%v) of format-4 runs, want their records in a smaller rewrite", table, est, err)
		}
	}
	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	db := eng.DB()
	later := 0 // sections that follow another in their file
	for _, table := range tables {
		var records uint64
		var pages int64
		for p := range db.Partitions() {
			for _, r := range db.Table(table).Runs(p) {
				h := r.Header()
				if h.Format != btree.FormatDelta {
					t.Fatalf("%s run in %s is format %d after MaintainNow", table, r.Name(), h.Format)
				}
				later += int(h.FirstPage)
				records += r.Records()
				pages += r.SizeBytes() - int64(h.FilterLen)
			}
		}
		est, err := eng.EstimateCompression(table)
		if err != nil {
			t.Fatal(err)
		}
		if est.Records != records || est.CompressedBytes != pages {
			t.Fatalf("%s: projected %d records in %d page bytes, MaintainNow wrote %d in %d", table, est.Records, est.CompressedBytes, records, pages)
		}
	}
	if later == 0 {
		t.Fatal("every new run is its file's first section: the projection of a later one is untested")
	}
}
