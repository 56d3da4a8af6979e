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
	"maps"
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
	// The fixture's entries are durable, as its writer left them: a crash
	// state that drops the entries made since the last directory sync
	// drops only what the test made.
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
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

// TestCatalogThatIsNotACatalogIsCorrupt: a commit whose catalog section
// parses as JSON but is no catalog — a checksummed commit, so one a writer
// other than this binary made — is refused as lsm.ErrCorrupt, like any
// other manifest Open cannot read.
func TestCatalogThatIsNotACatalogIsCorrupt(t *testing.T) {
	const commit = "commit.0000000013" // testdata/v5runs-store's commit file
	for _, sec := range []string{`{"lines":5}`, `[1]`, `"catalog"`} {
		fs, _ := earlierStore(t, "v5runs-store")
		b, err := os.ReadFile(filepath.Join("testdata", "v5runs-store", commit))
		if err != nil {
			t.Fatal(err)
		}
		// The commit file is an envelope — magic, version, body length and
		// the CRC-32C of those two and the body — then a 32-byte footer
		// whose layout, a commit file's, is all zero.
		const envLen, footerLen = 20, 32
		le := binary.LittleEndian
		body := b[envLen : len(b)-footerLen]
		i := bytes.LastIndex(body, []byte(`"catalog":`))
		if i < 0 {
			t.Fatal("the golden commit has no catalog section")
		}
		body = append(body[:i:i], `"catalog":`+sec+`}`...)
		env := append([]byte(nil), b[:envLen]...)
		le.PutUint32(env[12:], uint32(len(body)))
		castagnoli := crc32.MakeTable(crc32.Castagnoli)
		le.PutUint32(env[16:], crc32.Update(crc32.Checksum(env[8:16], castagnoli), castagnoli, body))
		if err := fs.Remove(commit); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(commit)
		if err == nil {
			_, err = f.WriteAt(append(append(env, body...), b[len(b)-footerLen:]...), 0)
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

// TestOutdatedRunsRewriteAtTheirLevel is the format horizon end to end,
// under PolicyFull with a threshold no partition reaches and under
// PolicyLeveled with RetainLive: a store whose every run is format 5
// (testdata/v5runs-store) opens and answers as it did when it was written;
// one MaintainNow leaves every run in the current format and the answers
// hold — under PolicyFull, which has no merge to make, by a rewrite of each
// run at its level, with its CP window and its records less those its
// deletion vector hides; a second MaintainNow finds nothing to do and
// installs nothing; and the store reopens migrated.
func TestOutdatedRunsRewriteAtTheirLevel(t *testing.T) {
	for _, c := range []struct {
		name     string
		opts     core.Options
		rewrites bool // the pass is a rewrite per run, and nothing else
	}{
		{"full", core.Options{CompactionPolicy: core.PolicyFullAt{Threshold: 64}}, true},
		{"leveled-retainlive", core.Options{CompactionPolicy: core.PolicyLeveled{}, Retention: core.RetainLive}, false},
	} {
		t.Run(c.name, func(t *testing.T) { outdatedRunsRewrite(t, c.opts, c.rewrites) })
	}
}

func outdatedRunsRewrite(t *testing.T, opts core.Options, rewrites bool) {
	fs, want := earlierStore(t, "v5runs-store")
	open := func() *core.Engine {
		t.Helper()
		o := opts
		o.VFS, o.Catalog, o.Durability = fs, core.NewMemCatalog(), wal.Buffered
		eng, err := core.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	before := eng.RunInfos()
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.Format(5)] != len(before) || len(before) == 0 {
		t.Fatalf("golden store's runs: %v, want format 5 only", counts)
	}
	if got := storeAnswers(t, eng, earlierStoreBlocks, 1); got != want {
		t.Fatalf("the golden store answers\n%s\nwant\n%s", got, want)
	}

	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	after := eng.RunInfos()
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] != len(after) {
		t.Fatalf("after MaintainNow: %v, want its runs in the current format", counts)
	}
	installed := eng.MaintenanceStats().AutoCompactions
	if rewrites {
		if installed != uint64(len(before)) || len(after) != len(before) {
			t.Fatalf("MaintainNow installed %d jobs leaving %d runs, want a rewrite per run (%d)", installed, len(after), len(before))
		}
		window := func(ri lsm.RunInfo) string {
			return fmt.Sprintf("%s p%d L%d, CP %d..%d known=%v, %d overrides",
				ri.Table, ri.Partition, ri.Level, ri.MinCP, ri.MaxCP, ri.CPWindowKnown, ri.Overrides)
		}
		var was, is []string
		var records int64
		for i := range before {
			was, is = append(was, window(before[i])), append(is, window(after[i]))
			records += int64(before[i].Records) - int64(after[i].Records)
		}
		slices.Sort(was)
		slices.Sort(is)
		if !slices.Equal(was, is) || records < 0 {
			t.Fatalf("the rewrite moved runs, or added %d records:\n%v\nwas\n%v", -records, is, was)
		}
	}
	if got := storeAnswers(t, eng, earlierStoreBlocks, 1); got != want {
		t.Fatalf("after MaintainNow the store answers\n%s\nwant\n%s", got, want)
	}

	files := eng.Files()
	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	if got := eng.MaintenanceStats(); got.AutoCompactions != installed || got.PendingJobs != 0 || !slices.Equal(eng.Files(), files) {
		t.Fatalf("a second MaintainNow: %+v, files %v (were %v), want nothing installed", got, eng.Files(), files)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = open()
	defer eng.Close()
	if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] != len(after) {
		t.Fatalf("after the reopen: %v", counts)
	}
	if got := storeAnswers(t, eng, earlierStoreBlocks, 1); got != want {
		t.Fatalf("the migrated store answers\n%s\nwant\n%s", got, want)
	}
}

// TestEarlierStoresMigrateOnTheirFirstMaintain: the store the previous run
// format's binary wrote (testdata/v5runs-store) opens with the model's
// answers and its writer's; its first MaintainNow leaves it in the current
// format (6) alone, with the answers unchanged, and a second installs
// nothing; the Close after them commits, and the store reopens and answers
// as before. Every store of a format before that is refused by name
// (refusedStore).
func TestEarlierStoresMigrateOnTheirFirstMaintain(t *testing.T) {
	for _, fx := range migrationFixtures {
		t.Run(fx.store, func(t *testing.T) {
			if fx.refused != "" {
				refusedStore(t, fx.store, fx.partitions, fx.refused)
				return
			}
			fs, want := earlierStore(t, fx.store)
			m, _ := writerModel(fx.mode != wal.CheckpointOnly)
			open := func() *core.Engine {
				t.Helper()
				eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: fx.mode})
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
			eng = open()
			defer eng.Close()
			if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] == 0 {
				t.Fatalf("after the reopen: %v", counts)
			}
			checkEarlierStore(t, eng, m, want)
		})
	}
}

// refusedStore opens a copy of testdata/<name>, a store in a format this
// binary no longer reads, in its partitions, and wants Open refused by name — not as damage —
// with an error that names what and the binary that upgrades the store,
// and every file as the store's writer left it.
func refusedStore(t *testing.T, name string, partitions int, what string) {
	t.Helper()
	fs, _ := earlierStore(t, name)
	eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Partitions: partitions, PartitionSpan: 100})
	if err == nil {
		eng.Close()
		t.Fatalf("%s opened", name)
	}
	if errors.Is(err, lsm.ErrCorrupt) || errors.Is(err, btree.ErrCorrupt) || !strings.Contains(err.Error(), what) ||
		!strings.Contains(err.Error(), "open the store once with a binary of commit 8d5575c") {
		t.Fatalf("%s: Open = %v, want %q refused by name, with its upgrader", name, err, what)
	}
	entries, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	files := memFiles(t, fs)
	for _, ent := range entries {
		want, err := os.ReadFile(filepath.Join("testdata", name, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(files[ent.Name()], want) {
			t.Fatalf("%s: the refused Open changed %s", name, ent.Name())
		}
	}
	if len(files) != len(entries) {
		t.Fatalf("%s: the refused Open left %d files, the store holds %d", name, len(files), len(entries))
	}
}

// TestCompressionProjectsTheRewrite: a table's projection
// (EstimateCompression) is the page bytes a maintenance pass writes for the
// table's records: one file per partition, the tables its sections, the
// header the first section's alone. On a copy of testdata/v5runs-store,
// every run of which is format 5, MaintainNow merges the partition whole —
// nine runs, over FullThreshold — which joins From and To records into
// Combined, so what it writes is held against the projection of the
// records it wrote: each table's projection is its new runs' records and
// bytes less their filters, the Combined section's without a header.
func TestCompressionProjectsTheRewrite(t *testing.T) {
	fs, _ := earlierStore(t, "v5runs-store")
	eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: wal.Buffered})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tables := []string{core.TableFrom, core.TableTo, core.TableCombined}
	for _, table := range tables {
		if est, err := eng.EstimateCompression(table); err != nil || est.Records == 0 || est.Ratio <= 1 {
			t.Fatalf("%s: projection %+v (%v) of format-5 runs, want their records in a smaller rewrite", table, est, err)
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

// migrationFixtures are the stores earlier binaries wrote, each with the
// durability it opens under, or, for a store in a format this binary no
// longer reads, what Open's refusal names (refusedStore) and the
// partitions of 100 blocks it was written with. v5runs-store's .answers
// file covers every block below earlierStoreBlocks.
var migrationFixtures = []struct {
	store      string
	mode       wal.Durability
	refused    string
	partitions int
}{
	{"v3manifest-store", wal.CheckpointOnly, "the manifest in MANIFEST, version 3,", 1},
	{"v4manifest-store", wal.Buffered, "the manifest in MANIFEST, version 4,", 1},
	{"v3runs-store", wal.CheckpointOnly, "run format 3 is no longer read", 2},
	{"v4runs-store", wal.Buffered, "run format 4 is no longer read", 1},
	{"v5runs-store", wal.Buffered, "", 1},
}

// TestCurrentFormatStoreOpensAsWritten: the store a binary of the current
// run format wrote (testdata/v6runs-store, from a build of 958afda) opens
// with the model's answers and its writer's, and its Open, every query and
// its Close leave each run file byte for byte as the writer did. Its runs'
// filters are read, not probed around: a run whose range is wider than its
// records, so that some block in it is absent, rules some block out.
func TestCurrentFormatStoreOpensAsWritten(t *testing.T) {
	fs, want := earlierStore(t, "v6runs-store")
	m, _ := writerModel(true)
	runs := func() map[string][]byte {
		files := memFiles(t, fs)
		maps.DeleteFunc(files, func(name string, _ []byte) bool { return !strings.HasSuffix(name, ".run") })
		return files
	}
	written := runs()
	for range 2 {
		eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: wal.Buffered})
		if err != nil {
			t.Fatal(err)
		}
		if counts := formatCounts(eng); len(counts) != 1 || counts[btree.FormatDelta] != 9 {
			t.Fatalf("runs by format: %v, want nine of format %d", counts, btree.FormatDelta)
		}
		checkEarlierStore(t, eng, m, want)
		for _, table := range []string{core.TableFrom, core.TableTo, core.TableCombined} {
			for _, run := range eng.DB().Table(table).Runs(0) {
				ruled := run.MaxBlock()-run.MinBlock() < run.Records() // every block of the range may be present
				for b := run.MinBlock(); b <= run.MaxBlock() && !ruled; b++ {
					ruled = !run.MayContainBlock(b)
				}
				if !ruled {
					t.Fatalf("%s run in %s rules no block of [%d, %d] out: its filter is not read", table, run.Name(), run.MinBlock(), run.MaxBlock())
				}
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if got := runs(); !maps.EqualFunc(got, written, bytes.Equal) {
			t.Fatalf("the run files changed: %d of them now, %d written", len(got), len(written))
		}
	}
}

// TestMigrationSurvivesACrash: the migration of the store the previous run
// format's binary wrote — its first MaintainNow, which rewrites every run of
// that format, and the Close that commits it — killed at each of its
// mutating calls in turn and at the first call after them, each under
// every crash state. Every reopen answers as the store's writer did and
// leaves no file the commit it took does not need. A store of an earlier
// format is refused by name, every file as its writer left it.
func TestMigrationSurvivesACrash(t *testing.T) {
	for _, fx := range migrationFixtures {
		t.Run(fx.store, func(t *testing.T) {
			if fx.refused != "" {
				refusedStore(t, fx.store, fx.partitions, fx.refused)
				return
			}
			opts := func(fs *storage.MemFS) core.Options {
				return core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: fx.mode}
			}
			migrate := func(eng *core.Engine) error {
				return errors.Join(eng.MaintainNow(), eng.Close())
			}
			// start loads the store, opens it and returns it with the
			// calls made so far and the writer's answers.
			start := func() (*storage.MemFS, *core.Engine, int64, string) {
				fs, want := earlierStore(t, fx.store)
				eng, err := core.Open(opts(fs))
				if err != nil {
					t.Fatal(err)
				}
				return fs, eng, fs.Stats().Calls, want
			}
			fs, eng, at, _ := start()
			if err := migrate(eng); err != nil {
				t.Fatal(err)
			}
			calls := fs.Stats().Calls - at
			t.Logf("the migration makes %d mutating calls", calls)
			for k := int64(1); k <= calls+1; k++ {
				for name, state := range crashStates() {
					what := fmt.Sprintf("killed at call %d of %d, crash state %q", k, calls, name)
					fs, eng, at, want := start()
					fs.SetFailurePlan(storage.FailurePlan{KillAt: at + k, TornWrite: k%2 == 0})
					if err := migrate(eng); k > calls && err != nil {
						t.Fatalf("%s: the migration failed before its kill point: %v", what, err)
					}
					fs.SetFailurePlan(storage.FailurePlan{KillAt: fs.Stats().Calls + 1})
					fs.Crash(state)
					fs.SetFailurePlan(storage.FailurePlan{})
					eng, err := core.Open(opts(fs))
					if err != nil {
						t.Fatalf("%s: reopen: %v", what, err)
					}
					if got := storeAnswers(t, eng, earlierStoreBlocks, 1); got != want {
						t.Fatalf("%s: the store answers\n%s\nits writer answered\n%s", what, got, want)
					}
					if err := noOrphans(fs, eng); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					eng.Close()
				}
			}
		})
	}
}
