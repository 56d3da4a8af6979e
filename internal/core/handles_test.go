package core_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

// countHandles installs a plan on fs whose hook counts the handles open on
// run files: every Open or Create of a *.run name adds one, every Close
// takes one away. It returns them, one entry per handle; a name closed more
// often than opened is an entry too, so a double Close cannot hide a leak.
func countHandles(fs *storage.MemFS) (held func() []string) {
	var mu sync.Mutex
	open := map[string]int{}
	fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
		if !strings.HasSuffix(c.Name, ".run") {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		switch c.Op {
		case storage.OpOpen, storage.OpCreate:
			open[c.Name]++
		case storage.OpClose:
			open[c.Name]--
		}
		return nil
	}})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		var names []string
		for name, n := range open {
			if n < 0 {
				names = append(names, fmt.Sprintf("%s (closed more often than opened, by %d)", name, -n))
			}
			for ; n > 0; n-- {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names
	}
}

// TestRunHandlesAreClosed checks that an open store holds exactly one
// handle per live run file — one for a checkpoint's From and To runs, which
// share their file; none on a builder's finished file; none on a file a
// merge reclaimed — that Close releases them all, and that an Open which
// fails on a damaged run — a file cut short of the header its commit
// carries — releases the handles it had opened.
func TestRunHandlesAreClosed(t *testing.T) {
	fs := storage.NewMemFS()
	held := countHandles(fs)
	open := func() (*core.Engine, error) {
		return core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog()})
	}
	liveFiles := func(eng *core.Engine) []string {
		var names []string
		for _, ri := range eng.RunInfos() {
			names = append(names, ri.Name)
		}
		slices.Sort(names)
		return slices.Compact(names)
	}
	check := func(when string, want []string) {
		t.Helper()
		if got := held(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: open run handles %v, want %v", when, got, want)
		}
	}
	// Each epoch adds 32 references and removes the previous epoch's, so
	// every checkpoint writes a From and a To run into one file.
	epochs := func(eng *core.Engine, from, to uint64) {
		t.Helper()
		for cp := from; cp <= to; cp++ {
			for b := uint64(0); b < 32; b++ {
				eng.AddRef(core.Ref{Block: b, Inode: cp, Offset: b, Length: 1}, cp)
				if cp > 1 {
					eng.RemoveRef(core.Ref{Block: b, Inode: cp - 1, Offset: b, Length: 1}, cp)
				}
			}
			if err := eng.Checkpoint(cp); err != nil {
				t.Fatal(err)
			}
		}
	}

	eng, err := open()
	if err != nil {
		t.Fatal(err)
	}
	epochs(eng, 1, 4)
	if runs, files := eng.RunCount(), len(liveFiles(eng)); runs != 7 || files != 4 {
		t.Fatalf("%d runs in %d files after four checkpoints, want 7 in 4", runs, files)
	}
	check("after four checkpoints", liveFiles(eng))

	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := len(liveFiles(eng)); n != 1 {
		// With no snapshot, every completed interval is purged.
		t.Fatalf("%d run files after the merge, want its From output's", n)
	}
	check("after the merge reclaimed its inputs", liveFiles(eng))

	epochs(eng, 5, 6)
	files := liveFiles(eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close", nil)

	// Cut the merge's output short: the header its commit carries no longer
	// fits the file, which Open finds once every run file's handle is open.
	merged := files[slices.IndexFunc(files, func(n string) bool { return strings.HasPrefix(n, "merge.") })]
	f, err := fs.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size/2)
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Remove(merged); err != nil {
		t.Fatal(err)
	}
	if f, err = fs.Create(merged); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := open(); err == nil {
		t.Fatal("Open accepted a run file cut short")
	}
	check("after the failed Open", nil)
}
