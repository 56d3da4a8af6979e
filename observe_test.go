package backlog

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// ingest writes a small workload so every hot path has been exercised at
// least once: adds, removes, a checkpoint, queries.
func ingest(t *testing.T, db *DB) {
	t.Helper()
	for i := uint64(0); i < 64; i++ {
		db.AddRef(Ref{Block: i, Line: 1, Inode: i, Offset: i}, 1)
	}
	db.RemoveRef(Ref{Block: 0, Line: 1, Inode: 0, Offset: 0}, 2)
	if err := db.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(1); err != nil {
		t.Fatal(err)
	}
	err := db.QueryRange(0, 8, func(uint64, []Owner) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	// MetricsSampleEvery 1 times every hot op, making histogram counts
	// exact; the default sampling path is covered by TestMetricsSampling.
	db, err := Open(Config{InMemory: true, Metrics: true, MetricsSampleEvery: 1, Durability: DurabilitySync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingest(t, db)

	s := db.Metrics()
	if v, ok := s.Counter("backlog_refs_added_total"); !ok || v != 64 {
		t.Fatalf("backlog_refs_added_total = %d, %v; want 64, true", v, ok)
	}
	if v, ok := s.Counter("backlog_checkpoints_total"); !ok || v != 1 {
		t.Fatalf("backlog_checkpoints_total = %d, %v; want 1, true", v, ok)
	}
	// QueryRange counts each block queried; plus the single Query.
	if v, ok := s.Counter("backlog_queries_total"); !ok || v != 9 {
		t.Fatalf("backlog_queries_total = %d, %v; want 9, true", v, ok)
	}
	for _, name := range []string{
		"backlog_addref_ns", "backlog_removeref_ns", "backlog_query_ns",
		"backlog_queryrange_ns", "backlog_wal_append_ns",
		"backlog_wal_batch_records", "backlog_checkpoint_freeze_ns",
		"backlog_checkpoint_flush_ns", "backlog_checkpoint_install_ns",
	} {
		h, ok := s.Histogram(name)
		if !ok {
			t.Fatalf("histogram %s not registered", name)
		}
		if h.Count == 0 {
			t.Errorf("histogram %s recorded nothing", name)
		}
	}
	if h, _ := s.Histogram("backlog_addref_ns"); h.Count != 64 {
		t.Errorf("backlog_addref_ns count = %d, want 64", h.Count)
	}

	// The registry mirrors Stats — same atomics, read at snapshot time.
	st := db.Stats()
	if v, _ := s.Counter("backlog_refs_removed_total"); v != st.RefsRemoved {
		t.Errorf("registry RefsRemoved %d != Stats %d", v, st.RefsRemoved)
	}
	if v, _ := s.Counter("backlog_records_flushed_total"); v != st.RecordsFlushed {
		t.Errorf("registry RecordsFlushed %d != Stats %d", v, st.RecordsFlushed)
	}
}

func TestMetricsDisabledIsZero(t *testing.T) {
	db := openMem(t)
	defer db.Close()
	ingest(t, db)
	s := db.Metrics()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("disabled metrics snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("disabled WriteMetrics wrote %d bytes", buf.Len())
	}
}

func TestMetricsSampling(t *testing.T) {
	// With default sampling, counters stay exact while hot-op histograms
	// record a subset; background histograms (checkpoint phases) still
	// time every occurrence.
	db, err := Open(Config{InMemory: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := uint64(0); i < 256; i++ {
		db.AddRef(Ref{Block: i, Line: 1, Inode: i, Offset: i}, 1)
	}
	if err := db.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	s := db.Metrics()
	if v, _ := s.Counter("backlog_refs_added_total"); v != 256 {
		t.Errorf("backlog_refs_added_total = %d, want exact 256", v)
	}
	h, ok := s.Histogram("backlog_addref_ns")
	if !ok {
		t.Fatal("backlog_addref_ns not registered")
	}
	if h.Count == 0 || h.Count >= 256 {
		t.Errorf("sampled backlog_addref_ns count = %d, want in (0, 256)", h.Count)
	}
	if h, _ := s.Histogram("backlog_checkpoint_freeze_ns"); h.Count != 1 {
		t.Errorf("backlog_checkpoint_freeze_ns count = %d, want 1 (never sampled)", h.Count)
	}
}

func TestWriteMetricsPrometheus(t *testing.T) {
	db, err := Open(Config{InMemory: true, Metrics: true, MetricsSampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingest(t, db)
	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE backlog_refs_added_total counter",
		"backlog_refs_added_total 64",
		"# TYPE backlog_addref_ns histogram",
		`backlog_addref_ns_bucket{le="+Inf"}`,
		"backlog_addref_ns_count 64",
		`backlog_ws_records{shard="0"}`,
		`backlog_runs_level{level="7"}`,
		`backlog_run_logical_bytes{table="from"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteMetrics output missing %q", want)
		}
	}
}

type recordingTracer struct {
	mu     sync.Mutex
	starts int
	ends   []OpEvent
}

func (r *recordingTracer) OpStart(ev OpEvent) {
	r.mu.Lock()
	r.starts++
	r.mu.Unlock()
}

func (r *recordingTracer) OpEnd(ev OpEvent) {
	r.mu.Lock()
	r.ends = append(r.ends, ev)
	r.mu.Unlock()
}

func TestConfigTracer(t *testing.T) {
	tr := &recordingTracer{}
	db, err := Open(Config{InMemory: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingest(t, db)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.starts != len(tr.ends) {
		t.Fatalf("starts %d != ends %d", tr.starts, len(tr.ends))
	}
	counts := map[OpKind]int{}
	for _, ev := range tr.ends {
		counts[ev.Kind]++
		if ev.Dur < 0 {
			t.Errorf("%v: negative duration %v", ev.Kind, ev.Dur)
		}
	}
	if counts[OpAddRef] != 64 {
		t.Errorf("OpAddRef events = %d, want 64", counts[OpAddRef])
	}
	if counts[OpRemoveRef] != 1 || counts[OpCheckpoint] != 1 ||
		counts[OpQuery] != 1 || counts[OpQueryRange] != 1 {
		t.Errorf("unexpected op counts: %v", counts)
	}
}

// stallingTracer is a recordingTracer whose start hook holds every
// checkpoint for a while; the hook runs inside the op's timed window, so
// it makes the checkpoint a slow op on cue.
type stallingTracer struct {
	recordingTracer
	stall time.Duration
}

func (s *stallingTracer) OpStart(ev OpEvent) {
	if ev.Kind == OpCheckpoint {
		time.Sleep(s.stall)
	}
	s.recordingTracer.OpStart(ev)
}

// TestTracerBesideSlowLog: with both a Tracer and a slow-op threshold set,
// the tracer sees every start and end event, and the slow-op log keeps
// exactly the end events at or above the threshold, as backlog_slow_ops_total
// counts them.
func TestTracerBesideSlowLog(t *testing.T) {
	const threshold = 10 * time.Millisecond
	tr := &stallingTracer{stall: 2 * threshold}
	db, err := Open(Config{InMemory: true, Metrics: true, Tracer: tr, SlowOpThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingest(t, db) // 68 ops: fewer than the log's ring holds

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.starts != 68 || len(tr.ends) != 68 {
		t.Fatalf("tracer saw %d starts and %d ends, want 68 of each", tr.starts, len(tr.ends))
	}
	var want []OpEvent
	for _, ev := range tr.ends {
		if ev.Dur >= threshold {
			want = append(want, ev)
		}
	}
	got := db.SlowOps()
	if len(got) != len(want) {
		t.Fatalf("slow-op log kept %d events, the tracer saw %d at or above %v", len(got), len(want), threshold)
	}
	kinds := map[OpKind]bool{}
	for i := range got {
		if got[i].Kind != want[i].Kind || !got[i].Start.Equal(want[i].Start) || got[i].Dur != want[i].Dur {
			t.Fatalf("slow op %d = %+v, the tracer's is %+v", i, got[i], want[i])
		}
		kinds[got[i].Kind] = true
	}
	if !kinds[OpCheckpoint] || len(got) == len(tr.ends) {
		t.Fatalf("slow-op log kept %d of %d ops (kinds %v), want the stalled checkpoint and not every op", len(got), len(tr.ends), kinds)
	}
	if total, _ := db.Metrics().Counter("backlog_slow_ops_total"); total != uint64(len(got)) {
		t.Fatalf("backlog_slow_ops_total = %d, want %d", total, len(got))
	}
}

func TestSlowOps(t *testing.T) {
	db, err := Open(Config{InMemory: true, SlowOpThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingest(t, db)
	ops := db.SlowOps()
	if len(ops) == 0 || len(ops) > 128 {
		t.Fatalf("SlowOps returned %d events, want 1..128", len(ops))
	}
}

func TestDebugAddrEndToEnd(t *testing.T) {
	db, err := Open(Config{InMemory: true, DebugAddr: "127.0.0.1:0", SlowOpThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingest(t, db)

	addr := db.DebugAddr()
	if addr == "" {
		t.Fatal("DebugAddr is empty")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"backlog_refs_added_total 64",
		"# TYPE backlog_addref_ns histogram",
		"backlog_wal_batch_records",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Close shuts the listener down.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
		t.Error("debug listener still serving after Close")
	}
}

func TestDebugAddrInUse(t *testing.T) {
	db, err := Open(Config{InMemory: true, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := Open(Config{InMemory: true, DebugAddr: db.DebugAddr()}); err == nil {
		t.Fatal("Open with an in-use DebugAddr should fail")
	}
}

func TestValidateObservability(t *testing.T) {
	cfg := Config{InMemory: true, SlowOpThreshold: -time.Second}
	if err := cfg.Validate(); err == nil {
		t.Error("negative SlowOpThreshold should fail validation")
	}
	cfg = Config{InMemory: true, MetricsSampleEvery: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative MetricsSampleEvery should fail validation")
	}
}
