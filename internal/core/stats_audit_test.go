package core

import (
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/obs"
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

// TestRegistryMirrorsStats pins every registry counter mirror to its
// Stats source: after a workload touching updates, queries, checkpoints,
// and compaction, the snapshot and Stats must agree exactly (they read
// the same atomics).
func TestRegistryMirrorsStats(t *testing.T) {
	reg := obs.NewRegistry()
	env := newTestEnv(t, Options{Metrics: reg, MetricsSampleEvery: 1})
	defer env.eng.Close()
	e := env.eng

	for cp := uint64(1); cp <= 3; cp++ {
		for i := uint64(0); i < 16; i++ {
			e.AddRef(ref(i, 1, i, cp), cp)
		}
		e.RemoveRef(ref(1, 1, 1, cp), cp)
		if err := e.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Query(3); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	s := reg.Snapshot()
	mirrors := map[string]uint64{
		"backlog_refs_added_total":      st.RefsAdded,
		"backlog_refs_removed_total":    st.RefsRemoved,
		"backlog_pruned_adds_total":     st.PrunedAdds,
		"backlog_pruned_removes_total":  st.PrunedRemoves,
		"backlog_checkpoints_total":     st.Checkpoints,
		"backlog_compactions_total":     st.Compactions,
		"backlog_records_flushed_total": st.RecordsFlushed,
		"backlog_records_purged_total":  st.RecordsPurged,
		"backlog_queries_total":         st.Queries,
		"backlog_relocations_total":     st.Relocations,
		"backlog_expiries_total":        st.Expiries,
		"backlog_wal_replayed_total":    st.WALReplayed,
	}
	for name, want := range mirrors {
		got, ok := s.Counter(name)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
	// Sanity: the workload actually moved the interesting counters.
	if st.RefsAdded != 48 || st.Checkpoints != 3 || st.RecordsFlushed == 0 {
		t.Errorf("workload under-exercised: %+v", st)
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
