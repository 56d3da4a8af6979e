package core_test

import (
	"fmt"
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
// handle per live run — none on a builder's finished file, none on a run a
// merge reclaimed — that Close releases them all, and that an Open which
// fails on its third run releases the two it had opened.
func TestRunHandlesAreClosed(t *testing.T) {
	fs := storage.NewMemFS()
	held := countHandles(fs)
	open := func() (*core.Engine, error) {
		return core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog()})
	}
	liveRuns := func(eng *core.Engine) []string {
		var names []string
		for _, ri := range eng.RunInfos() {
			names = append(names, ri.Name)
		}
		sort.Strings(names)
		return names
	}
	check := func(when string, want []string) {
		t.Helper()
		if got := held(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: open run handles %v, want %v", when, got, want)
		}
	}
	epochs := func(eng *core.Engine, from, to uint64) {
		t.Helper()
		for cp := from; cp <= to; cp++ {
			for b := uint64(0); b < 32; b++ {
				eng.AddRef(core.Ref{Block: b, Inode: cp, Offset: b, Length: 1}, cp)
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
	if n := eng.RunCount(); n != 4 {
		t.Fatalf("%d runs after four checkpoints, want 4", n)
	}
	check("after four checkpoints", liveRuns(eng))

	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := eng.RunCount(); n != 1 {
		t.Fatalf("%d runs after the merge, want 1", n)
	}
	check("after the merge reclaimed its inputs", liveRuns(eng))

	epochs(eng, 5, 6)
	runs := liveRuns(eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close", nil)

	// All three runs are From runs of partition 0, opened oldest first:
	// break the header of the newest.
	f, err := fs.Open(runs[len(runs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := open(); err == nil {
		t.Fatal("Open accepted a run with a zeroed header")
	}
	check("after the failed Open", nil)
}
