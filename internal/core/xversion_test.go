package core_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
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

var xversion = flag.Bool("xversion", false, "run TestCrossVersion, which builds the commits of xversionRows from git history")

// xversionRows are the earlier binaries TestCrossVersion holds this one
// against: for each generation of the on-disk formats, the last commit that
// wrote it. A format bump adds its parent commit as a row.
var xversionRows = []struct {
	rev    string
	writes string // what its stores hold that this binary's do not
	// upgrade is the chain of upgraders (testdata/upgrade) this binary's
	// refusal of the row's stores names, in turn; none when it reads them.
	upgrade []string
	// refuses is what the row's Open says when it refuses a store this
	// binary wrote, every file unchanged: it must refuse every one. None
	// when it must read them all.
	refuses []string
	// losesAll says the row takes every store this binary wrote for an
	// empty one, removing its runs as orphans.
	losesAll bool
}{
	// Commit format 5 is newer than every row up to 19dfafc, and each but
	// the first checks a commit's envelope version before it believes the
	// commit or checks a page of the file that carries it: every store this binary
	// wrote, closed or not, is refused by that version, every file
	// unchanged. Up to 45342b7 a row calls the version unsupported; from
	// 958afda on it tells a newer version from damage. abc326f predates the
	// commit trailer: it finds no commit it knows, opens an empty store and
	// removes every run as an orphan.
	{"abc326f", "a legacy MANIFEST, run format 3, log format 4", []string{"8d5575c"}, nil, true},
	{"7599812", "a commit trailer whose runs carry no header, run format 3, log format 4", []string{"8d5575c"}, []string{"manifest version 5 not supported"}, false},
	{"d2672fc", "run format 3, log format 4, commit format 4", []string{"8d5575c"}, []string{"manifest version 5 not supported"}, false},
	{"1667fd7", "run format 4, commit format 4", []string{"8d5575c"}, []string{"manifest version 5 not supported"}, false},
	{"45342b7", "run format 5, commit format 4", nil, []string{"manifest version 5 not supported"}, false},
	{"958afda", "BLF1 filters in delta runs, log format 5, commit format 4", nil, []string{storage.ErrNewerFormat.Error()}, false},
	{"687eb0f", "log format 5, commit format 4", nil, []string{storage.ErrNewerFormat.Error()}, false},
	{"19dfafc", "commit format 4", nil, []string{storage.ErrNewerFormat.Error()}, false},
	// 8acd0d7 shares every format with this binary but the filter: its
	// delta runs carry BLF2 only, and it reads no exact set (BLS1). A filter
	// is advisory, so it must read every store this binary wrote, closed
	// or not, probing around the filters it cannot decode.
	{"8acd0d7", "BLF2 filters only, where this binary writes exact sets", nil, nil, false},
}

// tookOp is an op the store was given and the CP being taken then.
type tookOp struct {
	op  smOp
	tag uint64
}

// line renders the op as a line of a replay script (testdata/replay).
func (t tookOp) line() string {
	o := t.op
	switch o.k {
	case opAdd:
		return fmt.Sprintf("add %d %d %d %d 1 %d", o.a, o.b, o.c, o.d, t.tag)
	case opRemove:
		return fmt.Sprintf("remove %d %d %d %d 1 %d", o.a, o.b, o.c, o.d, t.tag)
	case opRelocate:
		return fmt.Sprintf("relocate %d %d", o.a, o.b)
	case opSnapshot:
		return fmt.Sprintf("snapshot %d %d", o.a, t.tag)
	case opDeleteSnapshot:
		return fmt.Sprintf("unsnapshot %d %d", o.a, o.b)
	case opClone:
		return fmt.Sprintf("clone %d %d %d", o.a, o.b, o.c)
	case opDeleteLine:
		return fmt.Sprintf("dropline %d", o.a)
	case opCheckpoint:
		return fmt.Sprintf("checkpoint %d", t.tag)
	case opCompact:
		return "compact"
	case opMaintain:
		return "maintain"
	case opExpire:
		return "expire"
	case opReopen:
		return "reopen"
	}
	panic(fmt.Sprintf("%v has no script line", o))
}

// xvScript is an op list the state machine's generator drew, as a replay
// script, and what a store that ran it must answer.
type xvScript struct {
	name string
	mode wal.Durability
	path string
	exit bool // the script ends in a process exit, with no Close
	// lines is the catalog the store holds after the script, base the
	// histories as of its last checkpoint, pending the updates and
	// relocations since, at tag, of which the store keeps the first k for
	// some k in [lo, hi].
	lines   map[uint64]*smLine
	base    map[uint64]map[core.Ref][]smEvent
	pending []smOp
	tag     uint64
	lo, hi  int
}

var xvModeFlags = map[wal.Durability]string{wal.CheckpointOnly: "checkpoint-only", wal.Buffered: "buffered", wal.Sync: "sync"}

// model is what a store that kept the first k pending updates answers.
func (s *xvScript) model(k int) *model {
	d := &smDriver{m: &model{lines: copyLines(s.lines)}, base: s.base, pending: s.pending, tag: s.tag}
	d.rollback(k)
	return d.m
}

// answers renders model(k)'s answers as replay writes a store's.
func (s *xvScript) answers(k int) string {
	m := s.model(k)
	var sb strings.Builder
	for b := uint64(0); b < smBlocks; b++ {
		var lines []string
		for _, o := range m.owners(b) {
			lines = append(lines, fmt.Sprintf("%d %d %d %d %d %d %d %v", b, o.Inode, o.Offset, o.Line, o.Length, o.From, o.To, o.Versions))
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l + "\n")
		}
	}
	return sb.String()
}

// match returns the largest k in [lo, hi] whose answers are got, or -1.
func (s *xvScript) match(got string) int {
	for k := s.hi; k >= s.lo; k-- {
		if s.answers(k) == got {
			return k
		}
	}
	return -1
}

// xvScripts draws seeds 1–3 of the state machine's op lists in each
// durability mode, on one partition — the public API's default, which every
// row's binary opens a store with — and writes them into dir as replay
// scripts. The draw runs the checked driver: each op's answers are this
// binary's against the model. Seeds 2 and 3 end in a process exit at a
// drawn op; seed 1 closes the store. The ops the public API cannot make —
// a power loss, a reap of zombie snapshots on its own — are drawn again.
func xvScripts(t *testing.T, dir string) []*xvScript {
	t.Helper()
	var out []*xvScript
	for seed := int64(1); seed <= 3; seed++ {
		for mi, mode := range []wal.Durability{wal.CheckpointOnly, wal.Buffered, wal.Sync} {
			s := &xvScript{name: fmt.Sprintf("%s-seed%d", xvModeFlags[mode], seed), mode: mode, exit: seed > 1}
			d, err := newSMDriver(smConfig{mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed<<8 | int64(mi)))
			for n := 60 + rng.Intn(40); len(d.took) < n; {
				op := d.next(rng)
				if op.k == opCrash || op.k == opReap {
					continue
				}
				if err := d.do(op); err != nil {
					t.Fatalf("%s: op %v: %v", s.name, op, err)
				}
			}
			d.close()
			var sb strings.Builder
			for _, op := range d.took {
				sb.WriteString(op.line() + "\n")
			}
			s.lines, s.base, s.pending, s.tag = d.m.lines, d.base, d.pending, d.tag
			s.lo, s.hi = len(d.pending), len(d.pending)
			if s.exit {
				sb.WriteString("exit\n")
				s.lines = d.commits[0].lines // what the last commit holds
				if mode == wal.Buffered {
					s.lo = 0 // the acknowledged records still in memory die with the process
				}
			}
			if mode == wal.CheckpointOnly {
				s.lo, s.hi = 0, 0
			}
			s.path = filepath.Join(dir, s.name+".ops")
			if err := os.WriteFile(s.path, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	return out
}

// xvBuild builds testdata/<prog> for each prog at rev into dir, from a
// tree git archive exports, and returns the binaries by prog. The programs
// use only the public API, so they build at any commit of the table.
func xvBuild(t *testing.T, root, rev, dir string, progs ...string) map[string]string {
	t.Helper()
	tree := filepath.Join(dir, "tree")
	if err := os.MkdirAll(tree, 0o755); err != nil {
		t.Fatal(err)
	}
	archive := exec.Command("sh", "-c", fmt.Sprintf("git -C %q archive %s | tar -x -C %q", root, rev, tree))
	if out, err := archive.CombinedOutput(); err != nil {
		t.Fatalf("export %s: %v\n%s", rev, err, out)
	}
	bins := map[string]string{}
	for _, prog := range progs {
		src, err := os.ReadFile(filepath.Join("testdata", prog, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		cmdDir := filepath.Join(tree, "cmd", "xv"+prog)
		if err := os.MkdirAll(cmdDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cmdDir, "main.go"), src, 0o644); err != nil {
			t.Fatal(err)
		}
		bins[prog] = filepath.Join(dir, prog)
		xvGo(t, tree, "build", "-o", bins[prog], "./cmd/xv"+prog)
	}
	return bins
}

// xvGo runs the go command in dir, offline and on the toolchain at hand.
func xvGo(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
	}
}

// xvRun runs a replay or upgrade binary. It reports whether Open refused the
// store (replay's status 3) and what the binary said; any other failure
// fails the test.
func xvRun(t *testing.T, bin string, args ...string) (refused bool, stderr string) {
	t.Helper()
	var errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == 3 {
		return true, errb.String()
	}
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", bin, strings.Join(args, " "), err, errb.String())
	}
	return false, errb.String()
}

// dirFiles reads every file of a store's directory.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, ent := range entries {
		if files[ent.Name()], err = os.ReadFile(filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// xvOpen opens a store's directory as backlog.Open does by default.
func xvOpen(dir string, mode wal.Durability) (*storage.DirFS, *core.Engine, error) {
	fs, err := storage.NewDirFS(dir)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(), Durability: mode})
	return fs, eng, err
}

// xvCheck holds a store this binary opened to the script that made it: it
// answers as the model does with some surviving prefix of the updates since
// the last checkpoint (as the state machine's driver checks a crash), holds
// no file its commit does not name, and every run's header is its page's.
// Then the store checkpoints, runs a maintenance pass, closes, reopens and
// answers the same.
func xvCheck(t *testing.T, s *xvScript, dir string, fs *storage.DirFS, eng *core.Engine) {
	t.Helper()
	k := -1
	var first error
	for c := s.hi; c >= s.lo && k < 0; c-- {
		err := s.model(c).diff(eng, smBlocks, xvBlocks())
		if err == nil {
			k = c
		} else if first == nil {
			first = err
		}
	}
	if k < 0 {
		eng.Close()
		t.Fatalf("no prefix of %d to %d of the %d updates since the last checkpoint: the longest: %v", s.lo, s.hi, len(s.pending), first)
	}
	if err := errors.Join(noOrphans(fs, eng), eng.DB().CheckHeaders()); err != nil {
		eng.Close()
		t.Fatal(err)
	}
	if err := errors.Join(eng.Checkpoint(eng.CP()+1), eng.MaintainNow(), eng.Close()); err != nil {
		t.Fatal(err)
	}
	_, eng, err := xvOpen(dir, s.mode)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng.Close()
	if err := s.model(k).diff(eng, smBlocks, xvBlocks()); err != nil {
		t.Fatalf("after a checkpoint, a maintenance pass and a reopen: %v", err)
	}
}

func xvBlocks() []uint64 {
	blocks := make([]uint64, smBlocks)
	for b := range blocks {
		blocks[b] = uint64(b)
	}
	return blocks
}

// TestCrossVersion holds this binary and the earlier ones of xversionRows
// to the state machine's model over stores each wrote through the public
// API. The generator's op lists, written as replay scripts (xvScripts), run
// in a build of testdata/replay at each row's commit and at this tree.
//
// Forward: this binary opens each store a row's binary wrote. It reads it,
// or refuses it by name — naming the row's upgrader, every file as the row
// left it — and reads it once the upgraders have run over it, in turn. It
// answers as the model does and commits, maintains and reopens the same.
//
// Back: each row's binary opens a copy of each store this binary wrote. It
// answers as the model does, or refuses as its row says, every file
// unchanged.
//
// The test needs git history (CI checks out with fetch-depth: 0) and runs
// only with -xversion:
//
//	go test ./internal/core -run TestCrossVersion -xversion -v
func TestCrossVersion(t *testing.T) {
	if !*xversion {
		t.Skip("builds earlier commits from git history: run with -xversion")
	}
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		t.Skipf("no git history here (%v): TestCrossVersion builds earlier commits from it", err)
	}
	root := strings.TrimSpace(string(out))
	revs := map[string][]string{}
	for _, row := range xversionRows {
		revs[row.rev] = append(revs[row.rev], "replay")
		for _, u := range row.upgrade {
			revs[u] = append(revs[u], "upgrade")
		}
	}
	for rev := range revs {
		if err := exec.Command("git", "-C", root, "cat-file", "-e", rev+"^{commit}").Run(); err != nil {
			t.Skipf("the history lacks %s (a shallow clone?): TestCrossVersion builds it", rev)
		}
	}
	tmp := t.TempDir()
	bins := map[string]map[string]string{}
	for rev, progs := range revs {
		bins[rev] = xvBuild(t, root, rev, filepath.Join(tmp, "build", rev), progs...)
	}
	head := filepath.Join(tmp, "build", "head", "replay")
	xvGo(t, ".", "build", "-o", head, "./testdata/replay")

	scripts := xvScripts(t, tmp)
	// This binary's stores, through its public API.
	sets := 0
	for _, s := range scripts {
		dir := filepath.Join(tmp, "head", s.name)
		ans := dir + ".answers"
		xvRun(t, head, "-dir", dir, "-durability", xvModeFlags[s.mode], "-ops", s.path, "-answers", ans)
		if !s.exit {
			xvAnswers(t, s, ans, "this binary")
		}
		for _, data := range dirFiles(t, dir) {
			sets += bytes.Count(data, []byte("BLS1"))
		}
	}
	// The rows that read these stores must probe around filters they
	// cannot decode: the stores hold exact sets.
	if sets == 0 {
		t.Fatal("no store this binary wrote holds an exact set (BLS1)")
	}
	t.Logf("this binary's %d stores hold %d exact sets", len(scripts), sets)

	for _, row := range xversionRows {
		t.Run(row.rev, func(t *testing.T) {
			refused, upgraded, read, lost := 0, 0, 0, 0
			for _, s := range scripts {
				t.Run(s.name+"/forward", func(t *testing.T) {
					dir := filepath.Join(tmp, row.rev, s.name)
					ans := dir + ".answers"
					xvRun(t, bins[row.rev]["replay"], "-dir", dir, "-durability", xvModeFlags[s.mode], "-ops", s.path, "-answers", ans)
					if !s.exit {
						xvAnswers(t, s, ans, row.rev)
					}
					before := dirFiles(t, dir)
					fs, eng, err := xvOpen(dir, s.mode)
					if err != nil {
						if len(row.upgrade) == 0 || errors.Is(err, lsm.ErrCorrupt) || errors.Is(err, btree.ErrCorrupt) ||
							!strings.Contains(err.Error(), "binary of commit "+row.upgrade[0]) {
							t.Fatalf("Open of %s's store: %v, want it read or refused by name with its upgrader %v", row.rev, err, row.upgrade)
						}
						if !maps.EqualFunc(before, dirFiles(t, dir), bytes.Equal) {
							t.Fatalf("the refused Open changed the store")
						}
						upgraded++
						for _, u := range row.upgrade {
							xvRun(t, bins[u]["upgrade"], "-dir", dir, "-durability", xvModeFlags[s.mode])
						}
						if fs, eng, err = xvOpen(dir, s.mode); err != nil {
							t.Fatalf("Open after the upgrade through %v: %v", row.upgrade, err)
						}
					}
					xvCheck(t, s, dir, fs, eng)
				})
				t.Run(s.name+"/back", func(t *testing.T) {
					dir := filepath.Join(tmp, row.rev+"-reads-head", s.name)
					if err := os.CopyFS(dir, os.DirFS(filepath.Join(tmp, "head", s.name))); err != nil {
						t.Fatal(err)
					}
					before := dirFiles(t, dir)
					ans := dir + ".answers"
					no, stderr := xvRun(t, bins[row.rev]["replay"], "-dir", dir, "-durability", xvModeFlags[s.mode], "-answers", ans)
					stderr = strings.TrimSpace(stderr)
					after := dirFiles(t, dir)
					got, _ := os.ReadFile(ans)
					switch {
					case len(row.refuses) == 0 && !row.losesAll && !no && s.match(string(got)) >= 0:
						read++
					case no && maps.EqualFunc(before, after, bytes.Equal) &&
						slices.ContainsFunc(row.refuses, func(w string) bool { return strings.Contains(stderr, w) }):
						refused++
					case row.losesAll && len(got) == 0 && !slices.ContainsFunc(slices.Collect(maps.Keys(before)), func(name string) bool {
						return strings.HasSuffix(name, ".run") && after[name] != nil
					}):
						lost++
					case no:
						t.Fatalf("%s refused this binary's store (%s), the files %s", row.rev, stderr,
							map[bool]string{true: "unchanged", false: "changed"}[maps.EqualFunc(before, after, bytes.Equal)])
					case len(row.refuses) > 0:
						t.Fatalf("%s read this binary's %s store, which it must refuse (%v), answering\n%s", row.rev, s.mode, row.refuses, got)
					default:
						t.Fatalf("%s answers\n%s\nthe model (all %d updates since the last checkpoint kept)\n%s", row.rev, got, s.hi, s.answers(s.hi))
					}
				})
			}
			t.Logf("%s (%s): this binary refused %d of its %d stores by name, and read each once %v upgraded it; of this binary's stores, %s read %d, refused %d and lost %d",
				row.rev, row.writes, upgraded, len(scripts), row.upgrade, row.rev, read, refused, lost)
			if len(row.upgrade) > 0 && upgraded == 0 {
				t.Errorf("no store of %s needed its upgrader: the row tests no refusal", row.rev)
			}
		})
	}
}

// xvAnswers compares the answers a replay wrote with the model's, for some
// surviving prefix of the script's updates since its last checkpoint.
func xvAnswers(t *testing.T, s *xvScript, path, who string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.match(string(got)) < 0 {
		t.Fatalf("%s answers\n%s\nthe model (all %d updates since the last checkpoint kept)\n%s", who, got, s.hi, s.answers(s.hi))
	}
}
