package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/backlogfs/backlog"
)

var update = flag.Bool("update", false, "rewrite testdata/stats-v5runs-store.json from this run")

// TestMain runs main instead of the tests when the test binary is started
// as backlogctl by run.
func TestMain(m *testing.M) {
	if os.Getenv("BACKLOGCTL_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run starts backlogctl with args and returns its stdout and exit code.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BACKLOGCTL_TEST_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stdout.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), 0
}

// TestStatsJSON: stats -json on a copy of the store an earlier binary wrote
// that the engine's upgrade tests open (an open may change it) prints
// testdata/stats-v5runs-store.json.
func TestStatsJSON(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "..", "internal", "core", "testdata", "v5runs-store"))); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "stats", "-dir", dir, "-shards", "1", "-json")
	if code != 0 {
		t.Fatalf("stats -json exited %d", code)
	}
	golden := filepath.Join("testdata", "stats-v5runs-store.json")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("stats -json printed\n%s\n%s holds\n%s", out, golden, want)
	}
}

// TestBadInvocationsFail: a command without -dir, a command that does not
// exist (compression, removed, among them) and a flag that does not
// (-compression, removed) exit non-zero, without creating the directory
// they name.
func TestBadInvocationsFail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	for _, args := range [][]string{
		{"stats"},
		{"nosuch", "-dir", dir},
		{"compression", "-dir", dir},
		{"stats", "-dir", dir, "-compression", "none"},
		{},
	} {
		if _, code := run(t, args...); code == 0 {
			t.Errorf("backlogctl %q exited 0", args)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused invocation created %s (%v)", dir, err)
	}
}

// TestExpireDeferredByReplayedRelocation: a Buffered, RetainLive store
// whose log holds a relocation of a block with Combined run records reopens
// with that relocation replayed and the Combined deletion vector dirty, so
// expire drops nothing and says why.
func TestExpireDeferredByReplayedRelocation(t *testing.T) {
	dir := t.TempDir()
	db, err := backlog.Open(backlog.Config{Dir: dir, WriteShards: 1,
		Durability: backlog.DurabilityBuffered, Retention: backlog.RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	ref := backlog.Ref{Block: 3, Inode: 3, Length: 1}
	steps := []func() error{
		func() error { return db.Catalog().CreateSnapshot(0, 1) },
		func() error { db.AddRef(ref, 1); return db.Checkpoint(1) },
		func() error { db.RemoveRef(ref, 2); return db.Checkpoint(2) },
		db.Compact, // [1, 2), retained by snapshot 1, becomes a Combined record
		func() error { return db.RelocateBlock(3, 700) },
		db.Close,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	out, code := run(t, "expire", "-dir", dir, "-shards", "1", "-durability", "buffered", "-retention", "live")
	if code != 0 {
		t.Fatalf("expire exited %d: %s", code, out)
	}
	const want = "expire deferred: relocations the log replayed at open are not yet checkpointed"
	if !strings.HasPrefix(out, want) {
		t.Fatalf("expire printed %q, want it to start %q", out, want)
	}
}
