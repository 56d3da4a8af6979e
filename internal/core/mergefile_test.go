// Tests of the files a merge writes: its outputs are runs of one file set,
// counted through the per-source IOReport and read back from RunInfos.
package core_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// compactionIO returns the engine's compaction-attributed I/O counters.
func compactionIO(eng *core.Engine) obs.SourceIO {
	return eng.IOReport().Sources[storage.SrcCompaction]
}

// mergeIO runs merge and returns the compaction creates and syncs it cost.
func mergeIO(t *testing.T, eng *core.Engine, merge func() error) (creates, syncs uint64) {
	t.Helper()
	before := compactionIO(eng)
	if err := merge(); err != nil {
		t.Fatal(err)
	}
	after := compactionIO(eng)
	return after.Creates - before.Creates, after.Syncs - before.Syncs
}

// TestUntieredMergeWritesOneFile: a whole merge's From and Combined
// outputs are sections of one merge file, created once and synced once.
func TestUntieredMergeWritesOneFile(t *testing.T) {
	fx := newMergeFixture(t, core.Options{})
	for cp := uint64(1); cp <= 4; cp++ {
		fx.epoch(cp)
	}
	if creates, syncs := mergeIO(t, fx.eng, fx.eng.Compact); creates != 1 || syncs != 1 {
		t.Fatalf("the merge created %d files and synced %d times, want 1 and 1", creates, syncs)
	}
	var tables, names []string
	for _, ri := range fx.eng.RunInfos() {
		tables, names = append(tables, ri.Table), append(names, ri.Name)
	}
	slices.Sort(tables)
	if names = slices.Compact(names); !slices.Equal(tables, []string{core.TableCombined, core.TableFrom}) ||
		len(names) != 1 || !strings.HasPrefix(names[0], mergeFile) {
		t.Fatalf("after the merge: %+v, want its From and Combined runs in one merge file", fx.eng.RunInfos())
	}
	fx.verify()
}

// TestTieredMergeKeepsSealedCombinedApart: a tiered stepped merge whose
// From, To and Combined outputs all get records writes two files — From
// and To sections of one, the sealed Combined run alone in the other — and
// no file for its empty override run. Expire dropping that Combined run
// removes its file and no other.
func TestTieredMergeKeepsSealedCombinedApart(t *testing.T) {
	fs, cat := storage.NewMemFS(), core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: fs, Catalog: cat, Retention: core.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	snapshot := func(cp uint64) {
		t.Helper()
		if err := cat.CreateSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
	}
	// level0 is the stepped merge of partition 0's level-0 runs to level 1.
	level0 := func() core.CompactionJob {
		v := eng.DB().AcquireView()
		defer v.Release()
		low := func(table string) (runs []*lsm.Run) {
			for _, r := range v.Runs(table, 0) {
				if r.Level() == 0 {
					runs = append(runs, r)
				}
			}
			return runs
		}
		return core.CompactionJob{OutputLevel: 1, From: low(core.TableFrom), To: low(core.TableTo), Combined: low(core.TableCombined)}
	}
	merge := func() error {
		ok, err := eng.CompactJob(level0())
		if err == nil && !ok {
			err = errors.New("the merge installed nothing")
		}
		return err
	}
	a, c := fref(1, 1, 0, 0), fref(3, 3, 0, 0)
	snapshot(1)
	eng.AddRef(a, 1)
	eng.AddRef(fref(2, 2, 0, 0), 1)
	fCheckpoint(t, eng, 1)
	// A's From climbs to level 1, so its To will merge alone.
	if err := merge(); err != nil {
		t.Fatal(err)
	}
	snapshot(2)
	eng.RemoveRef(a, 2)
	eng.AddRef(c, 2)
	fCheckpoint(t, eng, 2)
	eng.RemoveRef(c, 3)
	eng.AddRef(fref(4, 4, 0, 0), 3)
	fCheckpoint(t, eng, 3)

	// C's From and To pair into a Combined record snapshot 2 keeps; A's To
	// and D's From stay lone.
	if creates, syncs := mergeIO(t, eng, merge); creates != 2 || syncs != 2 {
		t.Fatalf("the tiered merge created %d files and synced %d times, want 2 and 2", creates, syncs)
	}
	out := map[string]lsm.RunInfo{}
	for _, ri := range eng.RunInfos() {
		if ri.CP == 3 && ri.Level == 1 {
			out[ri.Table] = ri
		}
	}
	from, to, comb := out[core.TableFrom], out[core.TableTo], out[core.TableCombined]
	if len(out) != 3 || from.Name != to.Name || comb.Name == from.Name || !comb.CPWindowKnown || comb.Overrides != 0 {
		t.Fatalf("the merge's outputs %+v: want From and To in one file, a sealed Combined run in another", out)
	}
	for _, ri := range eng.RunInfos() {
		if ri.Name == comb.Name && ri.Table != core.TableCombined {
			t.Fatalf("the sealed Combined run shares its file with %+v", ri)
		}
	}

	// Move the horizon past the Combined run's window: only it expires.
	snapshot(4)
	fCheckpoint(t, eng, 4)
	for _, cp := range []uint64{1, 2} {
		if err := cat.DeleteSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
	}
	before := listNames(t, fs)
	est, err := eng.Expire()
	if err != nil {
		t.Fatal(err)
	}
	if est.RunsDropped != 1 {
		t.Fatalf("Expire dropped %d runs, want the sealed Combined one", est.RunsDropped)
	}
	after := listNames(t, fs)
	// The commit file Expire's commit supersedes goes too.
	gone := slices.DeleteFunc(before, func(n string) bool { return slices.Contains(after, n) || strings.HasPrefix(n, "commit.") })
	if !slices.Equal(gone, []string{comb.Name}) {
		t.Fatalf("Expire removed %v, want only %s", gone, comb.Name)
	}
	for _, block := range []uint64{2, 4} {
		if owners := fQuery(t, eng, block); len(owners) != 1 || !owners[0].Live {
			t.Fatalf("block %d after expiry: %+v, want its live reference", block, owners)
		}
	}
}

// TestTieredWholeMergeWithoutOverridesWritesTwoFiles: a tiered whole merge
// that closes no lone To has no override record, and its override run,
// empty, creates no file: From and Combined, two files.
func TestTieredWholeMergeWithoutOverridesWritesTwoFiles(t *testing.T) {
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: storage.NewMemFS(), Catalog: cat, Retention: core.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := cat.CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	eng.AddRef(fref(1, 1, 0, 0), 1)
	eng.AddRef(fref(2, 2, 0, 0), 1)
	fCheckpoint(t, eng, 1)
	eng.RemoveRef(fref(1, 1, 0, 0), 2)
	fCheckpoint(t, eng, 2)
	if creates, syncs := mergeIO(t, eng, eng.Compact); creates != 2 || syncs != 2 {
		t.Fatalf("the merge created %d files and synced %d times, want 2 and 2", creates, syncs)
	}
	var tables []string
	for _, ri := range eng.RunInfos() {
		tables = append(tables, ri.Table)
	}
	if slices.Sort(tables); !slices.Equal(tables, []string{core.TableCombined, core.TableFrom}) {
		t.Fatalf("after the merge: %+v, want a From and a sealed Combined run", eng.RunInfos())
	}
}

// listNames lists the files of fs, sorted.
func listNames(t *testing.T, fs storage.VFS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	return names
}
