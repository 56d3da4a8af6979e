package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram("h", "", "ns", []uint64{10, 100, 1000})
	// A value equal to an upper bound belongs to that bucket (le
	// semantics); one past it belongs to the next.
	h.Observe(0)
	h.Observe(10)   // bucket 0 (le=10)
	h.Observe(11)   // bucket 1 (le=100)
	h.Observe(100)  // bucket 1
	h.Observe(1000) // bucket 2
	h.Observe(1001) // +Inf bucket
	s := h.Snapshot()
	wantCounts := []uint64{2, 2, 1, 1}
	if len(s.Buckets) != len(wantCounts) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, s.Buckets[i].Count, want)
		}
	}
	if s.Buckets[3].UpperBound != math.MaxUint64 {
		t.Errorf("last bucket bound = %d, want MaxUint64", s.Buckets[3].UpperBound)
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if want := uint64(0 + 10 + 11 + 100 + 1000 + 1001); s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
	if s.Max != 1001 {
		t.Errorf("max = %d, want 1001", s.Max)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := newHistogram("h", "", "ns", []uint64{1000, 10, 100})
	h.Observe(50)
	s := h.Snapshot()
	if s.Buckets[0].UpperBound != 10 || s.Buckets[1].UpperBound != 100 {
		t.Fatalf("bounds not sorted: %+v", s.Buckets)
	}
	if s.Buckets[1].Count != 1 {
		t.Fatalf("value 50 in wrong bucket: %+v", s.Buckets)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram("h", "", "ns", []uint64{100, 200, 300, 400})
	// 100 values uniform in (0,100]: p50 ≈ 50, p99 ≈ 99 by interpolation.
	for i := 0; i < 100; i++ {
		h.Observe(uint64(i + 1))
	}
	s := h.Snapshot()
	if got := s.Quantile(0.50); got < 40 || got > 60 {
		t.Errorf("p50 = %g, want ≈50", got)
	}
	if got := s.Quantile(1.0); got != 100 {
		t.Errorf("p100 = %g, want 100", got)
	}
	// Values past the last bound: quantile in the +Inf bucket reports Max.
	h2 := newHistogram("h2", "", "ns", []uint64{10})
	h2.Observe(500)
	h2.Observe(700)
	if got := h2.Snapshot().Quantile(0.99); got != 700 {
		t.Errorf("+Inf quantile = %g, want max 700", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

func TestHistogramSnapshotIsolation(t *testing.T) {
	h := newHistogram("h", "", "ns", LatencyBuckets())
	h.Observe(100)
	s1 := h.Snapshot()
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(i))
	}
	if s1.Count != 1 {
		t.Fatalf("snapshot mutated by later observes: count = %d", s1.Count)
	}
	var total uint64
	for _, b := range s1.Buckets {
		total += b.Count
	}
	if total != 1 {
		t.Fatalf("snapshot buckets mutated: total = %d", total)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram("h", "", "ns", LatencyBuckets())
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(seed*1000 + uint64(i))
			}
		}(uint64(w))
	}
	// Concurrent snapshot readers must see internally consistent copies.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if want := uint64(workers * perWorker); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d after quiescence", total, s.Count)
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var h *Histogram
	var r *Registry
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.Since(time.Now())
	if h.Count() != 0 {
		t.Error("nil histogram count != 0")
	}
	if hh := r.Histogram("x", "", "ns", nil); hh != nil {
		t.Error("nil registry returned non-nil histogram")
	}
	r.CounterFunc("x", "", func() uint64 { return 0 })
	r.GaugeFunc("x", "", func() float64 { return 0 })
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

func TestRegistryDuplicateSemantics(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", "help", "ns", []uint64{10})
	h2 := r.Histogram("h", "other help", "ns", []uint64{10})
	if h1 != h2 {
		t.Error("duplicate Histogram registration did not return existing handle")
	}
	h1.Observe(3)
	if h2.Count() != 1 {
		t.Error("handles not shared")
	}
	// Func metrics: re-registration replaces the callback (latest engine
	// wins when several engines share one registry).
	r.CounterFunc("f", "", func() uint64 { return 1 })
	r.CounterFunc("f", "", func() uint64 { return 2 })
	s := r.Snapshot()
	if v, ok := s.Counter("f"); !ok || v != 2 {
		t.Fatalf("func re-registration did not replace callback: %d %v", v, ok)
	}
	// Kind mismatch panics.
	for _, register := range []func(){
		func() { r.GaugeFunc("f", "", func() float64 { return 0 }) },
		func() { r.GaugeFunc("h", "", func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("kind mismatch did not panic")
				}
			}()
			register()
		}()
	}
}

func TestRegistrySnapshotLookup(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("a_total", "", func() uint64 { return 7 })
	r.GaugeFunc("b", "", func() float64 { return 2 })
	r.GaugeFunc("bf", "", func() float64 { return 2.5 })
	r.Histogram("h", "", "ns", []uint64{10}).Observe(3)
	s := r.Snapshot()
	if v, ok := s.Counter("a_total"); !ok || v != 7 {
		t.Errorf("counter lookup: %d %v", v, ok)
	}
	if v, ok := s.Gauge("b"); !ok || v != 2 {
		t.Errorf("gauge lookup: %g %v", v, ok)
	}
	if v, ok := s.Gauge("bf"); !ok || v != 2.5 {
		t.Errorf("gauge-func lookup: %g %v", v, ok)
	}
	if h, ok := s.Histogram("h"); !ok || h.Count != 1 {
		t.Errorf("histogram lookup: %+v %v", h, ok)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Error("missing counter lookup should report !ok")
	}
	if _, ok := s.Gauge("missing"); ok {
		t.Error("missing gauge lookup should report !ok")
	}
	if _, ok := s.Histogram("missing"); ok {
		t.Error("missing histogram lookup should report !ok")
	}
}

func TestSlowLogThresholdGating(t *testing.T) {
	s := NewSlowLog(time.Millisecond, 4)
	s.OpEnd(OpEvent{Kind: OpQuery, Dur: 500 * time.Microsecond})
	if s.Total() != 0 || len(s.Snapshot()) != 0 {
		t.Fatal("sub-threshold op retained")
	}
	s.OpEnd(OpEvent{Kind: OpQuery, Dur: time.Millisecond}) // boundary: retained
	s.OpEnd(OpEvent{Kind: OpAddRef, Dur: 2 * time.Millisecond})
	if s.Total() != 2 {
		t.Fatalf("total = %d, want 2", s.Total())
	}
	got := s.Snapshot()
	if len(got) != 2 || got[0].Kind != OpQuery || got[1].Kind != OpAddRef {
		t.Fatalf("snapshot = %+v", got)
	}
}

func TestSlowLogBoundedMemory(t *testing.T) {
	const capacity = 8
	s := NewSlowLog(0, capacity)
	for i := 0; i < 100; i++ {
		s.OpEnd(OpEvent{Block: uint64(i), Dur: time.Duration(i)})
	}
	got := s.Snapshot()
	if len(got) != capacity {
		t.Fatalf("ring grew past capacity: %d", len(got))
	}
	// Oldest first, newest events retained.
	for i, ev := range got {
		if want := uint64(100 - capacity + i); ev.Block != want {
			t.Fatalf("ring[%d].Block = %d, want %d", i, ev.Block, want)
		}
	}
	if s.Total() != 100 {
		t.Fatalf("total = %d, want 100", s.Total())
	}
}

func TestSlowLogConcurrentReaders(t *testing.T) {
	s := NewSlowLog(0, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				s.OpEnd(OpEvent{Dur: time.Duration(i)})
			}
		}()
	}
	for rdr := 0; rdr < 2; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if got := s.Snapshot(); len(got) > 16 {
					panic(fmt.Sprintf("snapshot longer than ring: %d", len(got)))
				}
			}
		}()
	}
	wg.Wait()
	if s.Total() != 20000 {
		t.Fatalf("total = %d, want 20000", s.Total())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("backlog_ops_total", "Total ops", func() uint64 { return 5 })
	r.GaugeFunc("backlog_ws_records{shard=\"0\"}", "WS records", func() float64 { return 10 })
	r.GaugeFunc("backlog_ws_records{shard=\"1\"}", "WS records", func() float64 { return 20 })
	h := r.Histogram("backlog_lat_ns", "Latency", "ns", []uint64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP backlog_ops_total Total ops\n",
		"# TYPE backlog_ops_total counter\n",
		"backlog_ops_total 5\n",
		"# TYPE backlog_ws_records gauge\n",
		"backlog_ws_records{shard=\"0\"} 10\n",
		"backlog_ws_records{shard=\"1\"} 20\n",
		"# TYPE backlog_lat_ns histogram\n",
		"backlog_lat_ns_bucket{le=\"100\"} 1\n",
		"backlog_lat_ns_bucket{le=\"1000\"} 2\n",
		"backlog_lat_ns_bucket{le=\"+Inf\"} 3\n",
		"backlog_lat_ns_sum 5550\n",
		"backlog_lat_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
	// HELP/TYPE for the labeled gauge family appears exactly once.
	if n := strings.Count(out, "# TYPE backlog_ws_records gauge"); n != 1 {
		t.Errorf("TYPE header for labeled family appears %d times", n)
	}
}

func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("backlog_test_total", "a counter", func() uint64 { return 9 })
	slow := NewSlowLog(0, 4)
	slow.OpEnd(OpEvent{Kind: OpQuery, Dur: time.Second, Err: errors.New("boom")})
	ds, err := Serve("127.0.0.1:0", r, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if out := get("/metrics"); !strings.Contains(out, "backlog_test_total 9") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	var vars struct {
		Goroutines int             `json:"goroutines"`
		Metrics    json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.Goroutines <= 0 || len(vars.Metrics) == 0 {
		t.Errorf("/debug/vars incomplete: %+v", vars)
	}
	var slowOut struct {
		Total uint64 `json:"total"`
		Ops   []struct {
			Kind string `json:"kind"`
			Err  string `json:"err"`
		} `json:"ops"`
	}
	if err := json.Unmarshal([]byte(get("/debug/slowops")), &slowOut); err != nil {
		t.Fatalf("/debug/slowops not JSON: %v", err)
	}
	if slowOut.Total != 1 || len(slowOut.Ops) != 1 ||
		slowOut.Ops[0].Kind != "query" || slowOut.Ops[0].Err != "boom" {
		t.Errorf("/debug/slowops = %+v", slowOut)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpAddRef, OpRemoveRef, OpQuery, OpQueryRange,
		OpRelocate, OpCheckpoint, OpCompact, OpExpire}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("OpKind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if OpKind(99).String() != "unknown" {
		t.Error("out-of-range OpKind should stringify as unknown")
	}
}
