package backlog

import (
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
)

func openMem(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir or InMemory succeeded")
	}
}

// TestConfigDefaultsTableIsComplete holds the package documentation's
// "Configuration defaults" table to the Config struct: every field has a
// row saying what its zero value means, and every row names a field.
func TestConfigDefaultsTableIsComplete(t *testing.T) {
	src, err := os.ReadFile("backlog.go")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "// Every Config field's zero value is valid and means:\n//\n"
	_, table, ok := strings.Cut(string(src), heading)
	if !ok {
		t.Fatal("backlog.go has no Config defaults table")
	}
	table, _, _ = strings.Cut(table, "\n//\n")
	rows := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		name, _, ok := strings.Cut(strings.TrimPrefix(line, "//\t"), " ")
		if !ok || !strings.Contains(line, " — ") {
			t.Fatalf("malformed defaults row %q", line)
		}
		rows[name] = true
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !rows[name] {
			t.Errorf("Config.%s has no row in the defaults table", name)
		}
		delete(rows, name)
	}
	for name := range rows {
		t.Errorf("defaults table row %q names no Config field", name)
	}
}

func TestBasicLifecycle(t *testing.T) {
	db := openMem(t)
	defer db.Close()

	db.AddRef(Ref{Block: 100, Inode: 2, Offset: 0, Line: 0}, 4)
	db.AddRef(Ref{Block: 101, Inode: 2, Offset: 1, Line: 0}, 4)
	if err := db.Checkpoint(4); err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().CreateSnapshot(0, 4); err != nil {
		t.Fatal(err)
	}
	db.RemoveRef(Ref{Block: 101, Inode: 2, Offset: 1, Line: 0}, 7)
	if err := db.Checkpoint(7); err != nil {
		t.Fatal(err)
	}

	owners, err := db.Query(101)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 1 || owners[0].Live || owners[0].From != 4 || owners[0].To != 7 {
		t.Fatalf("owners = %+v", owners)
	}
	if db.CP() != 7 {
		t.Fatalf("CP = %d", db.CP())
	}
	if db.SizeBytes() == 0 {
		t.Fatal("SizeBytes = 0")
	}
	st := db.Stats()
	if st.RefsAdded != 2 || st.RefsRemoved != 1 || st.Checkpoints != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.AddRef(Ref{Block: 5, Inode: 9, Offset: 0, Line: 0}, 1)
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil { // persists the catalog too
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	owners, err := db2.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 1 || !owners[0].Live {
		t.Fatalf("owners after reopen = %+v", owners)
	}
	if snaps := db2.Catalog().Snapshots(0); len(snaps) != 1 || snaps[0] != 1 {
		t.Fatalf("snapshots after reopen = %v", snaps)
	}
}

func TestCloneAndInheritance(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	db.AddRef(Ref{Block: 77, Inode: 3, Offset: 0, Line: 0}, 2)
	if err := db.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().CreateSnapshot(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().CreateClone(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	owners, err := db.Query(77)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 2 {
		t.Fatalf("owners = %+v", owners)
	}
	if !owners[1].Inherited || owners[1].Line != 1 {
		t.Fatalf("clone owner = %+v", owners[1])
	}
	if lines := db.Catalog().Lines(); len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if err := db.Catalog().DeleteLine(1); err != nil {
		t.Fatal(err)
	}
	owners, err = db.Query(77)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 2 {
		// line 0 live + snapshot; clone masked out
		t.Logf("owners after clone delete = %+v", owners)
	}
}

func TestRelocateBlock(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	db.AddRef(Ref{Block: 10, Inode: 1, Offset: 0, Line: 0}, 1)
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := db.RelocateBlock(10, 900); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if owners, _ := db.Query(10); len(owners) != 0 {
		t.Fatalf("old block still owned: %+v", owners)
	}
	owners, err := db.Query(900)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 1 || !owners[0].Live {
		t.Fatalf("new block owners = %+v", owners)
	}
}

func TestQueryRange(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	for b := uint64(100); b < 110; b++ {
		db.AddRef(Ref{Block: b, Inode: b, Offset: 0, Line: 0}, 1)
	}
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	var owned int
	if err := db.QueryRange(95, 20, func(b uint64, owners []Owner) bool {
		if len(owners) > 0 {
			owned++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if owned != 10 {
		t.Fatalf("owned = %d, want 10", owned)
	}
	// A range that would wrap past the largest block, or a negative count,
	// is refused before any block is visited.
	for _, n := range []int{2, -1} {
		if err := db.QueryRange(math.MaxUint64, n, func(b uint64, _ []Owner) bool {
			t.Errorf("QueryRange(MaxUint64, %d) visited block %d", n, b)
			return true
		}); err == nil {
			t.Errorf("QueryRange(MaxUint64, %d) = nil, want an error", n)
		}
	}
}

// TestCloseFlushesPerDurabilityMode checks the DB.Close contract: with a
// write-ahead log (Buffered/Sync) references accepted after the last
// Checkpoint survive a clean close and reopen; with CheckpointOnly they
// are discarded, the paper's behavior.
func TestCloseFlushesPerDurabilityMode(t *testing.T) {
	for _, mode := range []Durability{DurabilityCheckpointOnly, DurabilityBuffered, DurabilitySync} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(Config{Dir: dir, Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			db.AddRef(Ref{Block: 42, Inode: 3, Offset: 1, Line: 0}, 1)
			if err := db.Checkpoint(1); err != nil {
				t.Fatal(err)
			}
			// Buffered past the checkpoint: kept or discarded by Close
			// depending on the mode.
			db.AddRef(Ref{Block: 43, Inode: 3, Offset: 2, Line: 0}, 2)
			db.RemoveRef(Ref{Block: 42, Inode: 3, Offset: 1, Line: 0}, 2)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2, err := Open(Config{Dir: dir, Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			o42, err := db2.Query(42)
			if err != nil {
				t.Fatal(err)
			}
			o43, err := db2.Query(43)
			if err != nil {
				t.Fatal(err)
			}
			if mode == DurabilityCheckpointOnly {
				if len(o42) != 1 || !o42[0].Live {
					t.Fatalf("checkpointed ref = %+v", o42)
				}
				if len(o43) != 0 {
					t.Fatalf("un-checkpointed ref survived: %+v", o43)
				}
			} else {
				// The replayed RemoveRef closed the interval; with no
				// snapshot retaining [1, 2) the owner is masked out.
				if len(o42) != 0 {
					t.Fatalf("removed ref still visible: %+v", o42)
				}
				if len(o43) != 1 || !o43[0].Live {
					t.Fatalf("buffered ref lost by Close: %+v", o43)
				}
				if st := db2.Stats(); st.WALReplayed != 2 {
					t.Fatalf("WALReplayed = %d, want 2", st.WALReplayed)
				}
			}
		})
	}
}

// TestDatabaseStartsNoGoroutine: maintenance runs only when the host
// calls it, so in every durability mode and under both policies the
// goroutine count after Open, after a round of updates, checkpoints,
// Maintain and Expire, and after Close is what it was before Open. A
// checkpoint's flush goroutines are joined before it returns.
func TestDatabaseStartsNoGoroutine(t *testing.T) {
	for _, mode := range []Durability{DurabilityCheckpointOnly, DurabilityBuffered, DurabilitySync} {
		for _, pol := range []CompactionPolicy{PolicyFull, PolicyLeveled} {
			t.Run(mode.String()+"/"+pol.String(), func(t *testing.T) {
				// Let goroutines an earlier test left behind finish first,
				// so that only the database can move the count.
				before := runtime.NumGoroutine()
				for settled := 0; settled < 5; {
					time.Sleep(10 * time.Millisecond)
					if n := runtime.NumGoroutine(); n != before {
						before, settled = n, 0
					} else {
						settled++
					}
				}
				same := func(stage string) {
					t.Helper()
					if n := runtime.NumGoroutine(); n != before {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines %s, %d before Open:\n%s", n, stage, before, buf[:runtime.Stack(buf, true)])
					}
				}
				db, err := Open(Config{Dir: t.TempDir(), Durability: mode, CompactionPolicy: pol, WriteShards: 2})
				if err != nil {
					t.Fatal(err)
				}
				same("after Open")
				for cp := uint64(1); cp <= 9; cp++ {
					for b := uint64(0); b < 32; b++ {
						db.AddRef(Ref{Block: b, Inode: cp, Offset: b}, cp)
					}
					if err := db.Checkpoint(cp); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Maintain(); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Expire(); err != nil {
					t.Fatal(err)
				}
				if db.MaintenanceStats().AutoCompactions == 0 {
					t.Fatal("Maintain merged nothing after nine checkpoints")
				}
				same("after updates, checkpoints, Maintain and Expire")
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				same("after Close")
			})
		}
	}
}

func TestCompactKeepsAnswers(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	db.AddRef(Ref{Block: 50, Inode: 4, Offset: 2, Line: 0}, 1)
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().CreateSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	db.RemoveRef(Ref{Block: 50, Inode: 4, Offset: 2, Line: 0}, 3)
	if err := db.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	before, err := db.Query(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || len(after) != 1 || before[0].From != after[0].From {
		t.Fatalf("compaction changed answers: %+v vs %+v", before, after)
	}
	// Delete the snapshot and compact again: the record is purged.
	if err := db.Catalog().DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Query(50); len(got) != 0 {
		t.Fatalf("purged block still owned: %+v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{InMemory: true},
		{Dir: "/nonexistent/never-opened"},
		{InMemory: true, Partitions: 4, PartitionSpan: 1024, WriteShards: 2,
			Durability: DurabilitySync, Retention: RetainLive},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good[%d]: Validate = %v", i, err)
		}
	}
	bad := []struct {
		name string
		cfg  Config
	}{
		{"missing dir", Config{}},
		{"negative partitions", Config{InMemory: true, Partitions: -1}},
		{"partitions without span", Config{InMemory: true, Partitions: 2}},
		{"negative write shards", Config{InMemory: true, WriteShards: -1}},
		{"unknown durability", Config{InMemory: true, Durability: Durability(9)}},
		{"unknown retention", Config{InMemory: true, Retention: RetentionPolicy(9)}},
	}
	for _, c := range bad {
		if err := c.cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate = %v, want ErrBadConfig", c.name, err)
		}
		// Open must reject the same configurations up front.
		if _, err := Open(c.cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Open = %v, want ErrBadConfig", c.name, err)
		}
	}
}

// TestCatalogLifecycle drives every Lifecycle method through db.Catalog().
func TestCatalogLifecycle(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	cat := db.Catalog()

	db.AddRef(Ref{Block: 1, Inode: 1, Offset: 0, Line: 0}, 2)
	if err := db.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateSnapshot(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateClone(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if lines := cat.Lines(); len(lines) != 2 || lines[0] != 0 || lines[1] != 1 {
		t.Fatalf("Lines = %v", lines)
	}
	if snaps := cat.Snapshots(0); len(snaps) != 1 || snaps[0] != 2 {
		t.Fatalf("Snapshots(0) = %v", snaps)
	}
	if err := cat.DeleteLine(1); err != nil {
		t.Fatal(err)
	}
	if err := cat.DeleteSnapshot(0, 2); err != nil {
		t.Fatal(err)
	}
	if snaps := cat.Snapshots(0); len(snaps) != 0 {
		t.Fatalf("Snapshots(0) after delete = %v", snaps)
	}
}

// TestExpireEndToEnd seals two epochs behind RetainLive, deletes the
// first snapshot, and verifies expiry reclaims the first epoch's run
// without reading it — the public face of drop-based expiry — and that
// db.Runs exposes the CP windows driving the decision. Nothing commits in
// the background, so the drop is db.Expire's own.
func TestExpireEndToEnd(t *testing.T) {
	fs := storage.NewMemFS()
	db, err := openVFS(fs, Config{InMemory: true, Retention: RetainLive})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cat := db.Catalog()

	epoch := func(snap, block uint64) {
		if err := cat.CreateSnapshot(0, snap); err != nil {
			t.Fatal(err)
		}
		db.AddRef(Ref{Block: block, Inode: block, Offset: 0, Line: 0}, snap)
		if err := db.Checkpoint(snap); err != nil {
			t.Fatal(err)
		}
		db.RemoveRef(Ref{Block: block, Inode: block, Offset: 0, Line: 0}, snap+1)
		if err := db.Checkpoint(snap + 1); err != nil {
			t.Fatal(err)
		}
		// Under RetainLive, Compact runs in tiered mode and seals the
		// finished window instead of re-merging it.
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	epoch(1, 1)
	epoch(3, 3)

	var sealed []RunInfo
	for _, r := range db.Runs() {
		if r.Table == core.TableCombined && r.Level >= 1 && r.CPWindowKnown && r.Overrides == 0 {
			sealed = append(sealed, r)
		}
	}
	if len(sealed) != 2 || sealed[0].MinCP != 1 || sealed[0].MaxCP != 2 {
		t.Fatalf("sealed runs = %+v, want two with the first windowed [1, 2]", sealed)
	}

	before := fs.Stats()
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	est, err := db.Expire()
	if err != nil {
		t.Fatal(err)
	}
	if est.RunsDropped != 1 || est.RecordsDropped != 1 || est.Horizon != 3 {
		t.Fatalf("Expire = %+v, want run [1, 2] dropped below horizon 3", est)
	}
	if d := fs.Stats().Sub(before); d.BytesRead != 0 {
		t.Fatalf("public expiry read %d bytes", d.BytesRead)
	}
	if owners, err := db.Query(1); err != nil || len(owners) != 0 {
		t.Fatalf("expired block 1: owners=%v err=%v", owners, err)
	}
	if owners, err := db.Query(3); err != nil || len(owners) != 1 {
		t.Fatalf("retained block 3: owners=%v err=%v", owners, err)
	}
	st := db.Stats()
	if st.Expiries != 1 || st.RunsExpired != 1 || st.RecordsExpired != 1 {
		t.Fatalf("expiry counters = %+v", st)
	}
}

// TestCloseConcurrent is the regression for the unsynchronized closed
// flag: concurrent Close calls (and Close racing DurabilityErr pollers)
// must be race-free, with every call returning cleanly. Run under -race.
func TestCloseConcurrent(t *testing.T) {
	db, err := Open(Config{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	db.AddRef(Ref{Block: 1, Inode: 2, Offset: 0, Line: 0}, 1)
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = db.DurabilityErr()
			if err := db.Close(); err != nil {
				t.Error(err)
			}
			_ = db.DurabilityErr()
		}()
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
