package storage

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestPagesSpanned(t *testing.T) {
	cases := []struct {
		off  int64
		n    int
		want int64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, PageSize, 1},
		{0, PageSize + 1, 2},
		{1, PageSize, 2},
		{PageSize - 1, 2, 2},
		{PageSize, PageSize, 1},
		{100, -5, 0},
		{3 * PageSize, 4 * PageSize, 4},
	}
	for _, c := range cases {
		if got := pagesSpanned(c.off, c.n); got != c.want {
			t.Errorf("pagesSpanned(%d, %d) = %d, want %d", c.off, c.n, got, c.want)
		}
	}
}

func TestPagesSpannedProperty(t *testing.T) {
	// Property: splitting a write in two never spans fewer pages than the
	// single write, and at most one more page.
	f := func(off uint32, n1, n2 uint16) bool {
		o := int64(off)
		whole := pagesSpanned(o, int(n1)+int(n2))
		split := pagesSpanned(o, int(n1)) + pagesSpanned(o+int64(n1), int(n2))
		return split >= whole && split <= whole+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemFSCreateOpenRemove(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := fs.Create("a"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate Create: got %v, want ErrExist", err)
	}
	if _, err := fs.Open("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open missing: got %v, want ErrNotExist", err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	g, err := fs.Open("a")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q, want %q", buf, "hello")
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := fs.Remove("a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double Remove: got %v, want ErrNotExist", err)
	}
}

func TestMemFSReadPastEOF(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("a")
	if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Fatalf("short read: n=%d err=%v, want 3, io.EOF", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("read past EOF: err=%v, want io.EOF", err)
	}
}

func TestMemFSSparseWrite(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("a")
	if _, err := f.WriteAt([]byte("x"), 10000); err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	if size != 10001 {
		t.Fatalf("size = %d, want 10001", size)
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, 500); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatalf("hole not zero: %v", buf[0])
	}
}

// TestMemFSCrashKeepsAnEntryPrefix: with the directory modelled, a crash
// keeps every entry operation made before the last SyncDir and the chosen
// prefix of those made since, in order; a kept entry exists even if its
// file was never synced, and holds what its last Sync left. The zero state
// keeps a file exactly when it was synced. A clone crashes the same and
// leaves the file system it was taken from as it was.
func TestMemFSCrashKeepsAnEntryPrefix(t *testing.T) {
	setup := func() *MemFS {
		fs := NewMemFS()
		old, _ := fs.Create("old")
		old.WriteAt([]byte("old"), 0)
		old.Sync()
		if err := fs.SyncDir(); err != nil {
			t.Fatal(err)
		}
		a, _ := fs.Create("a") // entry 0
		a.WriteAt([]byte("a"), 0)
		a.Sync()
		fs.Remove("old")       // entry 1
		b, _ := fs.Create("b") // entry 2, never synced
		b.WriteAt([]byte("b"), 0)
		return fs
	}
	for _, tc := range []struct {
		state CrashState
		want  []string
	}{
		{CrashState{}, []string{"a"}},
		{CrashState{Directory: true}, []string{"old"}},
		{CrashState{Directory: true, Entries: 1}, []string{"a", "old"}},
		{CrashState{Directory: true, Entries: 2}, []string{"a"}},
		{CrashState{Directory: true, Entries: 3}, []string{"a", "b"}},
	} {
		orig := setup()
		if n := orig.PendingEntries(); n != 3 {
			t.Fatalf("%d entry operations pending, want 3", n)
		}
		for _, fs := range []*MemFS{setup(), orig.Clone()} {
			fs.Crash(tc.state)
			if names, _ := fs.List(); !reflect.DeepEqual(names, tc.want) {
				t.Fatalf("%+v: %v after the crash, want %v", tc.state, names, tc.want)
			}
			for _, name := range tc.want {
				f, _ := fs.Open(name)
				size, _ := f.Size()
				buf := make([]byte, size)
				f.ReadAt(buf, 0)
				if want := map[string]string{"old": "old", "a": "a", "b": ""}[name]; string(buf) != want {
					t.Fatalf("%+v: %s holds %q, want %q", tc.state, name, buf, want)
				}
			}
			// The crash made the kept entries the directory's.
			fs.Crash(CrashState{Directory: true})
			if names, _ := fs.List(); !reflect.DeepEqual(names, tc.want) || fs.PendingEntries() != 0 {
				t.Fatalf("%+v: a second crash left %v, %d entry operations pending", tc.state, names, fs.PendingEntries())
			}
		}
		if names, _ := orig.List(); !reflect.DeepEqual(names, []string{"a", "b"}) || orig.PendingEntries() != 3 {
			t.Fatalf("%+v: crashing a clone left the original with %v and %d entry operations pending", tc.state, names, orig.PendingEntries())
		}
		f, _ := orig.Open("b")
		if size, _ := f.Size(); size != 1 {
			t.Fatalf("%+v: crashing a clone left the original's unsynced file %d bytes long", tc.state, size)
		}
	}
}

// TestMemFSCrashKeepsChosenPages: a crash keeps the pages written since a
// file's last Sync that the state picks, in any order, and the rest read
// as at that Sync: zeros in a gap, nothing past the last kept page.
func TestMemFSCrashKeepsChosenPages(t *testing.T) {
	page := func(c byte) []byte { return bytes.Repeat([]byte{c}, PageSize) }
	for _, tc := range []struct {
		keep []int64
		want []byte
	}{
		{nil, page('s')},
		{[]int64{0}, page('x')},
		{[]int64{2}, slices.Concat(page('s'), make([]byte, PageSize), page('z')[:10])},
		{[]int64{0, 1, 2}, slices.Concat(page('x'), page('y'), page('z')[:10])},
	} {
		fs := NewMemFS()
		f, _ := fs.Create("f")
		f.WriteAt(page('s'), 0)
		f.Sync()
		f.WriteAt(slices.Concat(page('x'), page('y'), page('z')[:10]), 0)
		fs.Crash(CrashState{Pages: func(name string, p int64) bool { return name == "f" && slices.Contains(tc.keep, p) }})
		size, _ := f.Size()
		got := make([]byte, size)
		f.ReadAt(got, 0)
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("keeping pages %v: %d bytes after the crash, want %d", tc.keep, len(got), len(tc.want))
		}
	}
}

func TestMemFSStatsMeterPages(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("a")
	before := fs.Stats()
	payload := make([]byte, 3*PageSize)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	d := fs.Stats().Sub(before)
	if d.PageWrites != 3 {
		t.Fatalf("PageWrites = %d, want 3", d.PageWrites)
	}
	if d.BytesWritten != int64(3*PageSize) {
		t.Fatalf("BytesWritten = %d", d.BytesWritten)
	}
	// Unaligned write spanning a page boundary counts both pages.
	before = fs.Stats()
	if _, err := f.WriteAt(make([]byte, 2), PageSize-1); err != nil {
		t.Fatal(err)
	}
	if d := fs.Stats().Sub(before); d.PageWrites != 2 {
		t.Fatalf("boundary PageWrites = %d, want 2", d.PageWrites)
	}
}

func TestMemFSDiskModelSequential(t *testing.T) {
	fs := NewMemFS()
	fs.SetDiskModel(DiskModel{SeekNanos: 1000, WriteSeekNanos: 1000, BytesPerSecond: 1 << 30})
	f, _ := fs.Create("a")
	page := make([]byte, PageSize)
	if _, err := f.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	t0 := fs.Stats().DiskNanos
	// Sequential continuation: no seek charged.
	if _, err := f.WriteAt(page, PageSize); err != nil {
		t.Fatal(err)
	}
	seq := fs.Stats().DiskNanos - t0
	t1 := fs.Stats().DiskNanos
	// Random jump: seek charged.
	if _, err := f.WriteAt(page, 100*PageSize); err != nil {
		t.Fatal(err)
	}
	rnd := fs.Stats().DiskNanos - t1
	if rnd <= seq {
		t.Fatalf("random I/O (%d ns) not slower than sequential (%d ns)", rnd, seq)
	}
	if rnd-seq != 1000 {
		t.Fatalf("seek penalty = %d, want 1000", rnd-seq)
	}
}

func TestMemFSCrashDiscardsUnsynced(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("durable")
	if _, err := f.WriteAt([]byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.Create("ephemeral")
	if _, err := g.WriteAt([]byte("gone"), 0); err != nil {
		t.Fatal(err)
	}

	fs.Crash()

	if _, err := fs.Open("ephemeral"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("unsynced file survived crash: %v", err)
	}
	h, err := fs.Open("durable")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "v1" {
		t.Fatalf("after crash read %q, want %q", buf, "v1")
	}
}

func TestMemFSFailureInjection(t *testing.T) {
	fs := NewMemFS()
	fs.SetFailurePlan(FailurePlan{FailAfterPageWrites: 2})
	f, _ := fs.Create("a")
	page := make([]byte, PageSize)
	if _, err := f.WriteAt(page, 0); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.WriteAt(page, PageSize); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	if _, err := f.WriteAt(page, 2*PageSize); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 3: got %v, want ErrInjected", err)
	}
}

// TestMemFSSyncFailureInjection: the kill index fails the call that
// reaches it and every mutating call after it, changing nothing, and a
// SyncDir after it, so the crash that follows finds the file volatile and
// the directory as the last SyncDir before the kill left it.
func TestMemFSSyncFailureInjection(t *testing.T) {
	fs := NewMemFS()
	a, _ := fs.Create("a")
	b, _ := fs.Create("b")
	a.WriteAt([]byte("x"), 0)
	b.WriteAt([]byte("x"), 0)
	fs.SetFailurePlan(FailurePlan{KillAt: fs.Stats().Calls + 2})
	if err := errors.Join(a.Sync(), fs.SyncDir()); err != nil {
		t.Fatalf("before the kill point: %v", err)
	}
	_, err := fs.Create("e")
	for i, err := range []error{err, b.Sync(), fs.Remove("b"), fs.SyncDir()} {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d from the kill point: got %v, want ErrInjected", i, err)
		}
	}
	if st := fs.Stats(); st.Syncs != 1 || st.FilesCreated != 2 || st.FilesRemoved != 0 || st.Calls != 8 {
		t.Fatalf("stats after the kill: %+v, want the failed calls numbered and nothing else counted", st)
	}
	fs.Crash(CrashState{Directory: true})
	if names, _ := fs.List(); len(names) != 2 || names[0] != "a" {
		t.Fatalf("after the crash: %v, want both entries the SyncDir kept, a synced", names)
	}
}

// TestMemFSKillPointTearsItsWrite: the write at the kill point applies the
// first half of its pages, durable if TornWriteDurable says so; the next
// applies nothing.
func TestMemFSKillPointTearsItsWrite(t *testing.T) {
	for _, durable := range []bool{false, true} {
		fs := NewMemFS()
		f, _ := fs.Create("a")
		fs.SetFailurePlan(FailurePlan{KillAt: 2, TornWrite: true, TornWriteDurable: durable})
		n1, _ := f.WriteAt(make([]byte, 4*PageSize), 0)
		n2, err := f.WriteAt(make([]byte, 4*PageSize), 0)
		fs.Crash()
		if names, _ := fs.List(); n1 != 2*PageSize || n2 != 0 || !errors.Is(err, ErrInjected) || (len(names) == 1) != durable {
			t.Fatalf("durable=%v: writes applied %d and %d bytes (%v), %v left after the crash", durable, n1, n2, err, names)
		}
	}
}

// TestMemFSHook: the plan's hook sees every call with its name, offset and
// length, runs without the MemFS lock, and fails a call, which then does
// and counts nothing.
func TestMemFSHook(t *testing.T) {
	fs := NewMemFS()
	var seen []Call
	fs.SetFailurePlan(FailurePlan{Hook: func(c Call) error {
		fs.Stats() // would deadlock under the lock
		seen = append(seen, c)
		if c.Op == OpSync {
			return ErrInjected
		}
		return nil
	}})
	f, _ := fs.Create("a")
	f.WriteAt([]byte("xyz"), 5)
	err := f.Sync()
	f.ReadAt(make([]byte, 2), 1)
	f.Size()
	f.Close()
	fs.Open("a")
	fs.SyncDir()
	fs.List()
	fs.Remove("a")
	want := []Call{{OpCreate, "a", 0, 0}, {OpWrite, "a", 5, 3}, {OpSync, "a", 0, 0}, {OpRead, "a", 1, 2},
		{OpSize, "a", 0, 0}, {OpClose, "a", 0, 0}, {OpOpen, "a", 0, 0}, {OpSyncDir, "", 0, 0},
		{OpList, "", 0, 0}, {OpRemove, "a", 0, 0}}
	if st := fs.Stats(); !errors.Is(err, ErrInjected) || st.Syncs != 0 || st.Calls != 3 || !reflect.DeepEqual(seen, want) {
		t.Fatalf("sync: %v; stats %+v; the hook saw\n%v\nwant\n%v", err, st, seen, want)
	}
}

func TestMemFSTornWrite(t *testing.T) {
	fs := NewMemFS()
	fs.SetFailurePlan(FailurePlan{FailAfterPageWrites: 1, TornWrite: true})
	f, _ := fs.Create("a")
	payload := make([]byte, 2*PageSize)
	for i := range payload {
		payload[i] = 0xAB
	}
	n, err := f.WriteAt(payload, 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n != PageSize {
		t.Fatalf("torn write applied %d bytes, want %d", n, PageSize)
	}
	size, _ := f.Size()
	if size != PageSize {
		t.Fatalf("size after torn write = %d, want %d", size, PageSize)
	}
}

func TestDirFSRoundTrip(t *testing.T) {
	d, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := d.Create("run.0001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("run.0001"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate Create: %v", err)
	}
	g, err := d.Open("run.0001")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "payload" {
		t.Fatalf("read %q", buf)
	}
	size, err := g.Size()
	if err != nil || size != 7 {
		t.Fatalf("Size = %d, %v", size, err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncDir(); err != nil {
		t.Fatal(err)
	}
	names, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "run.0001" {
		t.Fatalf("List = %v", names)
	}
	if err := d.Remove("run.0001"); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("run.0001"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
	// The attributed VFS that wraps a DirFS counts its I/O; DirFS itself
	// meters nothing.
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("DirFS metered %+v, want the zero Stats", st)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{PageReads: 5, PageWrites: 7, BytesRead: 100, Syncs: 1}
	b := Stats{PageReads: 2, PageWrites: 3, BytesRead: 40}
	sum := a.Add(b)
	if sum.PageReads != 7 || sum.PageWrites != 10 || sum.BytesRead != 140 {
		t.Fatalf("Add = %+v", sum)
	}
	if diff := sum.Sub(b); diff != a {
		t.Fatalf("Sub = %+v, want %+v", diff, a)
	}
}
