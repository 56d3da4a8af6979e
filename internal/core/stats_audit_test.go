package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// These tests audit the exactly-once semantics of every Stats counter and
// pin the registry mirrors to the same atomics: a counter that double
// increments (or misses an increment) on some path shows up here as a
// drifted total.

func TestStatsExactlyOnceUpdatePath(t *testing.T) {
	env := newTestEnv(t, Options{})
	defer env.eng.Close()
	e := env.eng

	for i := uint64(0); i < 10; i++ {
		e.AddRef(ref(i, 1, i, 1), 1)
	}
	// A RemoveRef at the same CP proactively prunes the matching AddRef:
	// RefsRemoved counts the call, PrunedRemoves counts the cancellation.
	e.RemoveRef(ref(0, 1, 0, 1), 1)
	// A RemoveRef at a later CP is a plain interval close, no pruning.
	if err := e.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	e.RemoveRef(ref(1, 1, 1, 1), 2)

	st := e.Stats()
	if st.RefsAdded != 10 {
		t.Errorf("RefsAdded = %d, want 10", st.RefsAdded)
	}
	if st.RefsRemoved != 2 {
		t.Errorf("RefsRemoved = %d, want 2", st.RefsRemoved)
	}
	if st.PrunedRemoves != 1 {
		t.Errorf("PrunedRemoves = %d, want 1", st.PrunedRemoves)
	}
	if st.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", st.Checkpoints)
	}
}

func TestStatsExactlyOnceQueryPath(t *testing.T) {
	env := newTestEnv(t, Options{})
	defer env.eng.Close()
	e := env.eng
	e.AddRef(ref(1, 1, 0, 1), 1)
	if err := e.Checkpoint(1); err != nil {
		t.Fatal(err)
	}

	if _, err := e.Query(1); err != nil {
		t.Fatal(err)
	}
	// QueryRange counts one query per block visited, not one per call.
	err := e.QueryRange(0, 8, func(uint64, []Owner) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Queries != 9 {
		t.Errorf("Queries = %d, want 9 (1 Query + 8 QueryRange blocks)", st.Queries)
	}
}

func TestStatsExactlyOnceMaintenance(t *testing.T) {
	env := newTestEnv(t, Options{})
	defer env.eng.Close()
	e := env.eng

	// Two checkpoints build two runs per touched partition; one Compact
	// pass then counts each compacted partition exactly once, however
	// many runs it merged.
	for cp := uint64(1); cp <= 2; cp++ {
		for i := uint64(0); i < 8; i++ {
			e.AddRef(ref(i, 1, i, 1), cp)
		}
		if err := e.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1 (one partition compacted once)", st.Compactions)
	}
	if st.Checkpoints != 2 {
		t.Errorf("Checkpoints = %d, want 2", st.Checkpoints)
	}
	// An immediate second Compact finds nothing to merge below the
	// 2-run floor and must not inflate the counter.
	before := st.Compactions
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Compactions != before {
		t.Errorf("idle Compact moved Compactions %d -> %d", before, st.Compactions)
	}
}

// TestRegistryMirrorsStats walks counterTable: every Stats field is filled
// by exactly one row, and after a workload touching updates, pruning,
// relocation, queries, checkpoints, the log, merges, merge conflicts,
// maintenance passes and expiry, each row's series, its Stats field and its
// read agree exactly (they read the same value). The engine logs in Sync
// mode, so the log's rows exist.
func TestRegistryMirrorsStats(t *testing.T) {
	reg := obs.NewRegistry()
	env := newTestEnv(t, Options{Metrics: reg, MetricsSampleEvery: 1, Durability: wal.Sync, CompactionPolicy: PolicyFullAt{Threshold: 2},
		Retention: RetainLive})
	defer env.eng.Close()
	e, cat := env.eng, env.cat

	// Two epochs, each retained by a snapshot of its own and sealed by a
	// merge, tiered under RetainLive, into a Combined run of its own, as in
	// sealedEnv.
	for _, cp := range []uint64{1, 3} {
		if err := cat.CreateSnapshot(0, cp); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 16; i++ {
			e.AddRef(ref(i, cp, i, 0), cp)
		}
		e.RemoveRef(ref(0, cp, 0, 0), cp) // pruned: a same-CP remove
		if err := e.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i < 8; i++ {
			e.RemoveRef(ref(i, cp, i, 0), cp+1)
		}
		e.RemoveRef(ref(9, cp, 9, 0), cp+1)
		e.AddRef(ref(9, cp, 9, 0), cp+1) // pruned: a same-CP add
		if err := e.Checkpoint(cp + 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting the first snapshot leaves its epoch's run to Expire, the
	// second's to the next checkpoint's commit; a reference of the second
	// epoch that ends after both deletions is left to a merge's purge.
	if err := cat.DeleteSnapshot(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Expire(); err != nil {
		t.Fatal(err)
	}
	if err := cat.DeleteSnapshot(0, 3); err != nil {
		t.Fatal(err)
	}
	e.RemoveRef(ref(8, 3, 8, 0), 5)
	if err := e.RelocateBlock(15, 100); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(12); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}

	// A maintenance pass merges the partition while a Compact is held at
	// its merge file's Create: the pass installs, and the held merge finds
	// its inputs consumed, counts a conflict and retries.
	epoch := func(cp uint64) {
		e.AddRef(ref(cp, cp, 0, 0), cp)
		if err := e.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	onMergeCreate := func(hook func() error) {
		env.fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
			if c.Op != storage.OpCreate || !strings.HasPrefix(c.Name, "merge.") {
				return nil
			}
			return hook()
		}})
	}
	epoch(6)
	epoch(7)
	held := false
	onMergeCreate(func() error {
		if !held {
			held = true
			if err := e.MaintainNow(); err != nil {
				t.Error(err)
			}
		}
		return nil
	})
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	// A maintenance pass whose merge cannot create its file is abandoned.
	epoch(8)
	epoch(9)
	onMergeCreate(func() error { return storage.ErrInjected })
	if err := e.MaintainNow(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("MaintainNow = %v, want the injected error", err)
	}
	env.fs.SetFailurePlan(storage.FailurePlan{})

	rows := e.counterTable()
	st := e.Stats()
	fields := reflect.ValueOf(st)
	fills := map[string]int{}
	for _, c := range rows {
		if c.stat == "" {
			continue
		}
		fills[c.stat]++
		if f := fields.FieldByName(c.stat); !f.IsValid() {
			t.Errorf("%s fills Stats.%s, which does not exist", c.name, c.stat)
		} else if f.Uint() != c.read() {
			t.Errorf("Stats.%s = %d, %s reads %d", c.stat, f.Uint(), c.name, c.read())
		}
	}
	for i := range fields.NumField() {
		if name := fields.Type().Field(i).Name; fills[name] != 1 {
			t.Errorf("Stats.%s is filled by %d rows of counterTable, want 1", name, fills[name])
		}
	}

	// The counters the workload leaves at zero, and why.
	zero := map[string]string{
		// One appender: each flush acknowledges the one record its
		// appender sent, and that appender's next record is pending
		// before the next leader looks, so no leader ever waits.
		"backlog_wal_gathers_total":        "one appender never leaves a leader short",
		"backlog_wal_gathers_filled_total": "no gather, none filled",
		// A fresh store has no log tail; TestV2StoreOpensAndMigrates
		// counts a replay.
		"backlog_wal_replayed_total": "nothing to replay at a fresh Open",
	}
	s := reg.Snapshot()
	for _, c := range rows {
		want := c.read()
		got, ok := s.Counter(c.name)
		if !ok {
			t.Errorf("%s not registered", c.name)
			continue
		}
		if got != want {
			t.Errorf("%s = %d, its row reads %d", c.name, got, want)
		}
		why, listed := zero[c.name]
		switch {
		case want == 0 && !listed:
			t.Errorf("the workload left %s at zero", c.name)
		case want != 0 && listed:
			t.Errorf("%s = %d, want 0: %s", c.name, want, why)
		}
	}
}

// TestSlowOpCounterMatchesLog verifies backlog_slow_ops_total counts
// exactly the retained-eligible events.
func TestSlowOpCounterMatchesLog(t *testing.T) {
	reg := obs.NewRegistry()
	env := newTestEnv(t, Options{Metrics: reg, SlowOpThreshold: time.Nanosecond})
	defer env.eng.Close()
	e := env.eng
	const ops = obs.DefaultSlowLogSize + 10
	for i := uint64(0); i < ops; i++ {
		e.AddRef(ref(i, 1, i, 1), 1)
	}
	s := reg.Snapshot()
	total, ok := s.Counter("backlog_slow_ops_total")
	if !ok {
		t.Fatal("backlog_slow_ops_total not registered")
	}
	if total != ops {
		t.Errorf("backlog_slow_ops_total = %d, want %d (1ns threshold retains every op)", total, ops)
	}
	if got := len(e.SlowOps()); got != obs.DefaultSlowLogSize {
		t.Errorf("SlowOps returned %d events, want ring capacity %d", got, obs.DefaultSlowLogSize)
	}
}
