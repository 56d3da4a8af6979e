package backlog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/naive"
	"github.com/backlogfs/backlog/internal/storage"
)

// TestBackgroundCommitPersistsItsTopology: a snapshot deleted with no public
// commit after it, then a maintenance pass of the kind the background
// maintainer runs (Engine.MaintainNow), whose merge purges the records only
// that snapshot retained, then a crash. The reopened database either still
// lists the snapshot and still reports it as a version of the block's owner,
// or does not list it — never a snapshot whose owners are gone. The merge's
// manifest commit carries the catalog it purged by.
func TestBackgroundCommitPersistsItsTopology(t *testing.T) {
	for _, retention := range []RetentionPolicy{RetainAll, RetainLive} {
		cfg := Config{CompactThreshold: 2, Retention: retention}
		vfs := storage.NewMemFS()
		db, err := openVFS(vfs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := Ref{Block: 10, Inode: 2, Offset: 0, Line: 0}
		db.AddRef(ref, 1)
		if err := db.Catalog().CreateSnapshot(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(1); err != nil {
			t.Fatal(err)
		}
		db.RemoveRef(ref, 2)
		db.AddRef(Ref{Block: 11, Inode: 3, Offset: 0, Line: 0}, 2)
		if err := db.Checkpoint(2); err != nil {
			t.Fatal(err)
		}
		if owners, err := db.Query(10); err != nil || len(owners) != 1 || !reflect.DeepEqual(owners[0].Versions, []uint64{1}) {
			t.Fatalf("retention %v: before the deletion Query(10) = %+v, %v", retention, owners, err)
		}

		if err := db.Catalog().DeleteSnapshot(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := db.eng.MaintainNow(); err != nil {
			t.Fatal(err)
		}
		if db.Stats().RecordsPurged == 0 {
			t.Fatalf("retention %v: the pass purged nothing; the scenario needs its merge", retention)
		}
		crash(vfs, db)

		db2, err := openVFS(vfs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		owners, err := db2.Query(10)
		if err != nil {
			t.Fatal(err)
		}
		if snaps := db2.Catalog().Snapshots(0); len(snaps) != 0 {
			if len(owners) != 1 || !reflect.DeepEqual(owners[0].Versions, snaps) {
				t.Fatalf("retention %v: after the crash snapshots %v are listed and Query(10) = %+v", retention, snaps, owners)
			}
		} else if len(owners) != 0 {
			t.Fatalf("retention %v: no snapshot is listed and Query(10) = %+v", retention, owners)
		}
		db2.Close()
	}
}

// crash stops db the way a power failure would: nothing it still has in
// flight reaches the file system — the background maintainer is stopped
// behind a plan that fails every mutating call from now on — and MemFS
// drops what was never synced.
func crash(vfs *storage.MemFS, db *DB) {
	vfs.SetFailurePlan(storage.FailurePlan{KillAt: vfs.Stats().Calls + 1})
	if db.closed.CompareAndSwap(false, true) {
		_ = db.eng.Close() // CheckpointOnly: stops the maintainer, writes nothing
	}
	vfs.Crash()
	vfs.SetFailurePlan(storage.FailurePlan{})
}

// manifestFiles returns MANIFEST and every file it names — run files and
// deletion vectors — sorted.
func manifestFiles(t *testing.T, vfs storage.VFS) []string {
	t.Helper()
	f, err := vfs.Open("MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var m struct {
		Tables map[string]struct {
			Partitions [][]struct{ Name string }
			DVFile     string `json:"dv_file"`
		}
	}
	if err := json.NewDecoder(io.NewSectionReader(f, 0, 1<<30)).Decode(&m); err != nil {
		t.Fatal(err)
	}
	names := []string{"MANIFEST"}
	for _, tm := range m.Tables {
		for _, runs := range tm.Partitions {
			for _, r := range runs {
				names = append(names, r.Name)
			}
		}
		if tm.DVFile != "" {
			names = append(names, tm.DVFile)
		}
	}
	sort.Strings(names)
	return names
}

// crashOp is one reference update of the crash script.
type crashOp struct {
	ref    Ref
	cp     uint64
	remove bool
}

// crashStep is one step of the crash script: reference updates, then a
// catalog change, then the public call that must make both durable — or
// neither.
type crashStep struct {
	name    string
	ops     []crashOp
	catalog func(Lifecycle) error
	call    func(*DB) error
	kill    bool // enumerate this step's I/O; otherwise it is set-up
}

// crashScript exercises Checkpoint, Maintain, Expire and Close, each right
// after a catalog change: the merge of "maintain" purges what only the
// snapshot just deleted retained, the sweep of "expire" drops the sealed
// runs the last snapshot pinned.
func crashScript() []crashStep {
	r := func(block, inode uint64) Ref { return Ref{Block: block, Inode: inode, Length: 1} }
	var cpA, cpB []crashOp
	for b := uint64(0); b < 40; b++ {
		cpA = append(cpA, crashOp{ref: r(b, 1), cp: 1})
		if b%2 == 0 {
			cpB = append(cpB, crashOp{ref: r(b, 1), cp: 2, remove: true}, crashOp{ref: r(b, 2), cp: 2})
		}
	}
	var cpC []crashOp
	for b := uint64(1); b < 40; b += 4 {
		cpC = append(cpC, crashOp{ref: r(b, 1), cp: 3, remove: true})
	}
	snap := func(v uint64) func(Lifecycle) error {
		return func(l Lifecycle) error { return l.CreateSnapshot(0, v) }
	}
	unsnap := func(v uint64) func(Lifecycle) error {
		return func(l Lifecycle) error { return l.DeleteSnapshot(0, v) }
	}
	checkpoint := func(cp uint64) func(*DB) error {
		return func(db *DB) error { return db.Checkpoint(cp) }
	}
	return []crashStep{
		{name: "first checkpoint", ops: cpA, catalog: snap(1), call: checkpoint(1)},
		{name: "checkpoint", ops: cpB, catalog: snap(2), call: checkpoint(2), kill: true},
		{name: "maintain", catalog: unsnap(1), call: (*DB).Maintain, kill: true},
		{name: "third checkpoint", ops: cpC, call: checkpoint(3)},
		{name: "seal", call: (*DB).Maintain},
		{name: "expire", catalog: unsnap(2), call: func(db *DB) error { _, err := db.Expire(); return err }, kill: true},
		{name: "close", catalog: snap(4), call: (*DB).Close, kill: true},
	}
}

// crashState is what a reopened database must agree with: the committed
// consistency point, the snapshots listed, and what the naive oracle answers
// for every block given exactly those.
type crashState struct {
	cp    uint64
	snaps []uint64
}

// apply runs a step's updates and catalog change, not its call.
func (st crashStep) apply(t *testing.T, db *DB) {
	t.Helper()
	for _, o := range st.ops {
		if o.remove {
			db.RemoveRef(o.ref, o.cp)
		} else {
			db.AddRef(o.ref, o.cp)
		}
	}
	if st.catalog == nil {
		return
	}
	if err := st.catalog(db.Catalog()); err != nil {
		t.Fatalf("%s: catalog change: %v", st.name, err)
	}
}

// checkAgainstOracle compares every block's owners with the naive tracker's
// intervals for the updates up to want.cp, masked by want.snaps.
func checkAgainstOracle(t *testing.T, db *DB, steps []crashStep, want crashState, when string) {
	t.Helper()
	if got := db.CP(); got != want.cp {
		t.Fatalf("%s: CP %d, want %d", when, got, want.cp)
	}
	if got := db.Catalog().Snapshots(0); !slices.Equal(got, want.snaps) {
		t.Fatalf("%s: snapshots %v, want %v", when, got, want.snaps)
	}
	oracle, err := naive.New(storage.NewMemFS(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		for _, o := range st.ops {
			if o.cp > want.cp {
				continue
			}
			if o.remove {
				oracle.RemoveRef(o.ref, o.cp)
			} else {
				oracle.AddRef(o.ref, o.cp)
			}
		}
	}
	for b := uint64(0); b < 40; b++ {
		recs, err := oracle.QueryBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		var wantOwners, gotOwners []string
		for _, rec := range recs {
			var versions []uint64
			for _, v := range want.snaps {
				if rec.From <= v && v < rec.To {
					versions = append(versions, v)
				}
			}
			if live := rec.To == Infinity; rec.From != rec.To && (live || len(versions) > 0) {
				wantOwners = append(wantOwners, fmt.Sprintf("inode %d [%d,%d) %v live=%v", rec.Inode, rec.From, rec.To, versions, live))
			}
		}
		owners, err := db.Query(b)
		if err != nil {
			t.Fatalf("%s: Query(%d): %v", when, b, err)
		}
		for _, o := range owners {
			gotOwners = append(gotOwners, fmt.Sprintf("inode %d [%d,%d) %v live=%v", o.Inode, o.From, o.To, o.Versions, o.Live))
		}
		sort.Strings(wantOwners)
		sort.Strings(gotOwners)
		if !reflect.DeepEqual(gotOwners, wantOwners) {
			t.Fatalf("%s: block %d owners\n%v\nthe oracle at CP %d under snapshots %v\n%v", when, b, gotOwners, want.cp, want.snaps, wantOwners)
		}
	}
}

// TestCrashAtEveryIOOfPublicCommits kills Checkpoint, Maintain, Expire and
// Close at every create, write, sync, rename and remove they perform, each
// right after a catalog change. After the crash the reopened database is at
// the state before the step or at the state after it — consistency point,
// catalog and answers together, checked against internal/naive — the
// directory holds exactly MANIFEST and the files it names, and the step,
// retried if it was lost, commits.
func TestCrashAtEveryIOOfPublicCommits(t *testing.T) {
	cfg := Config{CompactThreshold: 2, Retention: RetainLive}
	steps := crashScript()

	// states[i] is the database before step i; the last entry, after all.
	states := []crashState{{}}
	{
		db, err := openVFS(storage.NewMemFS(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			st.apply(t, db)
			next := crashState{cp: states[len(states)-1].cp, snaps: db.Catalog().Snapshots(0)}
			for _, o := range st.ops {
				next.cp = o.cp
			}
			states = append(states, next)
			if err := st.call(db); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
	}

	// upTo builds a fresh store through steps[:i] and applies step i's
	// updates and catalog change.
	upTo := func(i int) (*storage.MemFS, *DB) {
		vfs := storage.NewMemFS()
		db, err := openVFS(vfs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range steps[:i] {
			st.apply(t, db)
			if err := st.call(db); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		steps[i].apply(t, db)
		return vfs, db
	}

	for i, st := range steps {
		if !st.kill {
			continue
		}
		vfs, db := upTo(i)
		before := vfs.Stats()
		if err := st.call(db); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		did := vfs.Stats().Sub(before)
		crash(vfs, db)
		if did.PageWrites == 0 || did.Syncs == 0 || did.Renames == 0 {
			t.Fatalf("%s committed nothing: %+v", st.name, did)
		}

		// A kill point is the k-th mutating call of the step, a write torn at
		// every other one.
		committed, lost := 0, 0
		for k := int64(0); k < did.Calls; k++ {
			vfs, db := upTo(i)
			when := fmt.Sprintf("%s killed at call %d of %d", st.name, k+1, did.Calls)
			vfs.SetFailurePlan(storage.FailurePlan{KillAt: vfs.Stats().Calls + 1 + k, TornWrite: k%2 == 1})
			_ = st.call(db) // the background maintainer may have taken the failure instead
			crash(vfs, db)

			db, err := openVFS(vfs, cfg)
			if err != nil {
				t.Fatalf("%s: reopening: %v", when, err)
			}
			names, err := vfs.List()
			if want := manifestFiles(t, vfs); err != nil || !slices.Equal(names, want) {
				t.Fatalf("%s: after Open the directory holds %v (%v), the manifest names %v", when, names, err, want)
			}
			if db.CP() == states[i+1].cp && slices.Equal(db.Catalog().Snapshots(0), states[i+1].snaps) {
				committed++
			} else {
				lost++
				checkAgainstOracle(t, db, steps, states[i], when+", step lost")
				st.apply(t, db)
				if st.name != "close" { // Close is retried just below
					if err := st.call(db); err != nil {
						t.Fatalf("%s: retried: %v", when, err)
					}
				}
			}
			checkAgainstOracle(t, db, steps, states[i+1], when+", step committed")
			if err := db.Close(); err != nil {
				t.Fatalf("%s: Close: %v", when, err)
			}
			db, err = openVFS(vfs, cfg)
			if err != nil {
				t.Fatalf("%s: second reopening: %v", when, err)
			}
			checkAgainstOracle(t, db, steps, states[i+1], when+", reopened again")
			crash(vfs, db)
		}
		// The last rename is the commit point, so every kill point of a call
		// that commits once loses the step; one that commits several times
		// (a pass of merges) may keep the catalog change of an earlier commit.
		if lost == 0 {
			t.Fatalf("%s: none of %d kill points lost the step", st.name, did.Calls)
		}
		t.Logf("%s: %d kill points (%d creates, %d removes), %d lost the step, %d kept its catalog change", st.name, did.Calls, did.FilesCreated, did.FilesRemoved, lost, committed)
	}

	// A stale Checkpoint is refused before anything is written.
	vfs, db := upTo(len(steps) - 1)
	before := vfs.Stats()
	if err := db.Checkpoint(3); !errors.Is(err, ErrStaleCP) {
		t.Fatalf("stale DB.Checkpoint: %v, want ErrStaleCP", err)
	}
	if d := vfs.Stats().Sub(before); d.PageWrites != 0 || d.Syncs != 0 || d.FilesCreated != 0 {
		t.Fatalf("stale DB.Checkpoint did I/O before failing: %+v", d)
	}
	crash(vfs, db)
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
