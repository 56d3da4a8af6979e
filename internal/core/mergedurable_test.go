// A merge installs in memory and becomes durable with the next commit:
// these tests pin when it does, what a crash before then finds, and what
// the merge no longer costs in manifest I/O.
package core_test

import (
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

const durableBlocks = 48

// runKey is what a reopen must agree on about a run.
type runKey struct {
	Table     string
	Partition int
	Name      string
	Level     int
	Records   uint64
}

func runList(eng *core.Engine) []runKey {
	var out []runKey
	for _, ri := range eng.RunInfos() {
		out = append(out, runKey{ri.Table, ri.Partition, ri.Name, ri.Level, ri.Records})
	}
	return out
}

func allOwners(t *testing.T, eng *core.Engine) [][]core.Owner {
	t.Helper()
	out := make([][]core.Owner, durableBlocks)
	for b := range out {
		out[b] = fQuery(t, eng, uint64(b))
	}
	return out
}

// listFiles returns the names fs holds.
func listFiles(t *testing.T, fs *storage.MemFS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// powerFail fails every I/O of eng from here on, closes it — its commit
// fails with the rest — and drops what fs never synced.
func powerFail(fs *storage.MemFS, eng *core.Engine) {
	fs.SetFailurePlan(storage.FailurePlan{KillAt: fs.Stats().Calls + 1})
	eng.Close()
	fs.Crash()
	fs.SetFailurePlan(storage.FailurePlan{})
}

// mergeableStore checkpoints three CPs of adds and removes under a
// snapshot, so that a maintenance pass at threshold 2 has a whole merge to
// run.
func mergeableStore(t *testing.T, fs *storage.MemFS) *core.Engine {
	t.Helper()
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: fs, Catalog: cat, WriteShards: 1,
		CompactionPolicy: core.PolicyFullAt{Threshold: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for cp := uint64(1); cp <= 3; cp++ {
		for b := uint64(0); b < durableBlocks; b++ {
			if b%3 == cp%3 {
				eng.AddRef(fref(b, cp, b, 0), cp)
			}
			if cp > 1 && b%3 == (cp-1)%3 && b%2 == 0 {
				eng.RemoveRef(fref(b, cp-1, b, 0), cp)
			}
		}
		if cp == 1 {
			if err := cat.CreateSnapshot(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		fCheckpoint(t, eng, cp)
	}
	return eng
}

func reopen(t *testing.T, fs *storage.MemFS) *core.Engine {
	t.Helper()
	eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), WriteShards: 1,
		CompactionPolicy: core.PolicyFullAt{Threshold: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestMergeIsDurableAtTheNextCommit: a maintenance pass's merge swaps the
// live runs and writes no manifest. A power failure before the next commit
// reopens the pre-merge runs with every answer the same and the merge's
// file collected; a Checkpoint or a Close after the pass commits the merged
// runs, and the inputs' files are gone.
func TestMergeIsDurableAtTheNextCommit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit func(t *testing.T, eng *core.Engine)
	}{
		{"power fails", nil},
		{"checkpoint", func(t *testing.T, eng *core.Engine) {
			eng.AddRef(fref(durableBlocks-1, 9, 0, 0), 4)
			fCheckpoint(t, eng, 4)
		}},
		{"close", func(t *testing.T, eng *core.Engine) {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := storage.NewMemFS()
			eng := mergeableStore(t, fs)
			inputs := runList(eng)
			before := allOwners(t, eng)
			if err := eng.MaintainNow(); err != nil {
				t.Fatal(err)
			}
			merged := runList(eng)
			if eng.Stats().Compactions == 0 || reflect.DeepEqual(merged, inputs) {
				t.Fatalf("the pass merged nothing: runs %+v", merged)
			}
			if got := allOwners(t, eng); !reflect.DeepEqual(got, before) {
				t.Fatalf("answers changed across the merge:\n%+v\nbefore\n%+v", got, before)
			}

			want := inputs
			if tc.commit != nil {
				tc.commit(t, eng)
				if tc.name == "checkpoint" {
					merged, before = runList(eng), allOwners(t, eng)
				}
				want = merged
			}
			powerFail(fs, eng)
			eng = reopen(t, fs)
			if got := runList(eng); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened with runs\n%+v\nwant\n%+v", got, want)
			}
			if got := allOwners(t, eng); !reflect.DeepEqual(got, before) {
				t.Fatalf("reopened answers\n%+v\nwant\n%+v", got, before)
			}
			files := listFiles(t, fs)
			if tc.commit == nil {
				if i := slices.IndexFunc(files, func(n string) bool { return strings.HasPrefix(n, "merge.") }); i >= 0 {
					t.Fatalf("Open left the uncommitted merge's %s: %v", files[i], files)
				}
				return
			}
			for _, in := range inputs {
				if !slices.ContainsFunc(want, func(r runKey) bool { return r.Name == in.Name }) && slices.Contains(files, in.Name) {
					t.Fatalf("the merged input %s outlived the commit: %v", in.Name, files)
				}
			}
		})
	}
}

// countCalls counts, from now on, the calls of fs that match.
func countCalls(fs *storage.MemFS, match func(storage.Call) bool) func() int {
	var n atomic.Int64
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if match(c) {
			n.Add(1)
		}
		return nil
	}})
	return func() int { return int(n.Load()) }
}

// TestMaintainWritesNoManifest: a maintenance pass that installs a merge
// leaves the manifest source of IOReport where it was — no write, no sync —
// and commits nothing: it creates no commit file and syncs no directory.
func TestMaintainWritesNoManifest(t *testing.T) {
	fs := storage.NewMemFS()
	eng := mergeableStore(t, fs)
	defer eng.Close()
	manifest := func() obs.SourceIO { return eng.IOReport().Sources[storage.SrcManifest] }
	before := manifest()
	commits := countCalls(fs, func(c storage.Call) bool {
		return c.Op == storage.OpSyncDir || c.Op == storage.OpCreate && strings.HasPrefix(c.Name, "commit.")
	})
	if err := eng.MaintainNow(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Compactions == 0 {
		t.Fatal("the pass merged nothing")
	}
	if after := manifest(); after.WriteOps != before.WriteOps || after.Syncs != before.Syncs {
		t.Fatalf("manifest I/O across the pass: %+v, before %+v", after, before)
	}
	if n := commits(); n != 0 {
		t.Fatalf("the pass made %d commit files and directory syncs", n)
	}
}

// TestCompactWritesOneManifest: Compact on a four-partition store merges
// every partition and commits them all with one commit file.
func TestCompactWritesOneManifest(t *testing.T) {
	fs := storage.NewMemFS()
	eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Partitions: 4, PartitionSpan: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for cp := uint64(1); cp <= 2; cp++ {
		for b := uint64(0); b < 256; b++ {
			eng.AddRef(fref(b, cp, 0, 0), cp)
		}
		fCheckpoint(t, eng, cp)
	}
	commitFiles := countCalls(fs, func(c storage.Call) bool { return c.Op == storage.OpCreate && strings.HasPrefix(c.Name, "commit.") })
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	fs.SetFailurePlan(storage.FailurePlan{})
	if got := eng.Stats().Compactions; got != 4 {
		t.Fatalf("Compactions = %d, want 4", got)
	}
	if n := commitFiles(); n != 1 {
		t.Fatalf("Compact wrote %d commit files, want 1", n)
	}
}
