package core_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// checkHeaders fails the test unless every run's header — the one its
// reader holds and the one the last commit carries — equals its page's.
func checkHeaders(t testing.TB, eng *core.Engine, when string) {
	t.Helper()
	if err := eng.DB().CheckHeaders(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// countReads installs a plan on fs whose hook sums the bytes read from each
// file, and returns them.
func countReads(fs *storage.MemFS) (read func() map[string]int) {
	var mu sync.Mutex
	n := map[string]int{}
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if c.Op == storage.OpRead {
			mu.Lock()
			n[c.Name] += c.Len
			mu.Unlock()
		}
		return nil
	}})
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := map[string]int{}
		for k, v := range n {
			out[k] = v
		}
		return out
	}
}

// TestCleanReopenReadsOnlyTheCommit is the reopen gate: after checkpoints,
// a merge and a clean Close, Open reads the commit file Close wrote and no
// byte of any run file — every run's reader is built from the header the
// commit carries — and IOReport credits exactly those bytes to recovery.
// Every header the store holds or commits equals its page's throughout.
func TestCleanReopenReadsOnlyTheCommit(t *testing.T) {
	fs := storage.NewMemFS()
	open := func() *core.Engine {
		eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Partitions: 2, PartitionSpan: 512})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	// Scattered inodes and offsets keep the runs several leaves deep in
	// either leaf format (Fibonacci hashing: the top 40 bits of x·2^64/φ).
	scatter := func(x uint64) uint64 { return x * 0x9e3779b97f4a7c15 >> 24 }
	for cp := uint64(1); cp <= 4; cp++ {
		for b := uint64(0); b < 1024; b++ {
			eng.AddRef(fref(b, scatter(cp<<20|b), scatter(b), 0), cp)
			if cp > 1 {
				eng.RemoveRef(fref(b, scatter((cp-1)<<20|b), scatter(b), 0), cp)
			}
		}
		fCheckpoint(t, eng, cp)
		checkHeaders(t, eng, "after a checkpoint")
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	checkHeaders(t, eng, "after the merge")
	want := map[uint64][]core.Owner{}
	for b := uint64(0); b < 1024; b++ {
		want[b] = fQuery(t, eng, b)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	read := countReads(fs)
	eng = open()
	defer eng.Close()
	got := read()
	files := eng.DB().Files()
	if len(files) < 2 {
		t.Fatalf("the store holds %v: want a commit file and run files", files)
	}
	var commit string
	for _, name := range files {
		if strings.HasPrefix(name, "commit.") {
			commit = name
		}
	}
	f, err := fs.Open(commit)
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[commit] != int(size) {
		t.Fatalf("Open read %v, want the %d bytes of %s alone", got, size, commit)
	}
	if rec := eng.IOReport().Sources[storage.SrcRecovery].ReadBytes; rec != uint64(size) {
		t.Fatalf("IOReport credits %d bytes to recovery, want the commit file's %d", rec, size)
	}
	checkHeaders(t, eng, "after the reopen")
	for b := uint64(0); b < 1024; b++ {
		if owners := fQuery(t, eng, b); !reflect.DeepEqual(owners, want[b]) {
			t.Fatalf("block %d answers %v after the reopen, %v before it", b, owners, want[b])
		}
	}
}

// TestCarriedHeadersAfterExpire: the commit an Expire makes, which drops a
// sealed run and builds none, carries the headers of the runs it keeps,
// each equal to its page's, and so does a reopen from it.
func TestCarriedHeadersAfterExpire(t *testing.T) {
	fs := storage.NewMemFS()
	eng, cat := sealedEnv(t, fs)
	checkHeaders(t, eng, "after the sealing merges")
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	before := len(sealedRuns(eng))
	if _, err := eng.Expire(); err != nil {
		t.Fatal(err)
	}
	if after := len(sealedRuns(eng)); after != before-1 {
		t.Fatalf("Expire left %d of %d sealed runs, want one dropped", after, before)
	}
	checkHeaders(t, eng, "after Expire")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(core.Options{VFS: fs, Catalog: cat, Retention: core.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	checkHeaders(t, eng, "after the reopen")
}
