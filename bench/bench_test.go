package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/backlogfs/backlog"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// benchmarkJSON mirrors the keys of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []map[string]string `json:"workloads"`
	EndToEnd   []map[string]any    `json:"end_to_end"`
	PerLayer   []map[string]any    `json:"per_layer"`
}

func wantBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 25,
	}
	for _, s := range specs {
		b.Workloads = append(b.Workloads, map[string]string{"name": s.name, "why": s.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	return b
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric and workload
// tables of this package identical, and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := wantBenchmarkJSON()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	// Compare through JSON so that numbers have one representation.
	wantData, _ := json.Marshal(want)
	gotData, _ := json.Marshal(got)
	if string(wantData) != string(gotData) {
		t.Fatalf("BENCHMARK.json differs from the tables in package bench (run go test -run TestBenchmarkJSON -update):\n got %s\nwant %s", gotData, wantData)
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", d.Name)
		}
		seen[d.Name] = true
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", d.Name, d.Bound)
		}
	}
	for _, s := range specs {
		if len(s.why) > 200 {
			t.Errorf("workload %s: why has %d characters", s.name, len(s.why))
		}
	}
}

func smallRun(t *testing.T, name string, traced bool) runResult {
	t.Helper()
	s, ok := findSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	rounds := 1
	if traced {
		rounds = 2 // one untraced, one traced
	}
	res, err := runWorkload(s, traced, options{seed: 7, scale: 0.01, rounds: rounds, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestInventory is the golden inventory: every workload emits exactly the
// names BENCHMARK.json lists — none missing, none extra — each with its
// unit and a finite value, and no operation fails.
func TestInventory(t *testing.T) {
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res := smallRun(t, s.name, traced)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", s.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", s.name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", s.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", s.name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want above 0", s.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestLayerSplit checks the predicted split between workloads on the
// traced run: the log is idle where no log is configured, and only the
// workloads that leave a log tail replay one.
func TestLayerSplit(t *testing.T) {
	layer := map[string]map[string]metric{}
	for _, s := range specs {
		layer[s.name] = smallRun(t, s.name, true).Metrics
	}
	for _, w := range []string{"ingest", "query"} {
		for _, m := range []string{"wal.syncs", "wal.bytes_per_record", "wal.records_per_batch",
			"storage.write_bytes.wal", "wal.replay_records_per_s"} {
			if v := layer[w][m].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", w, m, v)
			}
		}
	}
	for _, w := range []string{"durable", "mixed"} {
		for _, m := range []string{"storage.write_bytes.wal", "wal.replay_records_per_s"} {
			if v := layer[w][m].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want above 0", w, m, v)
			}
		}
	}
	if v := layer["durable"]["wal.syncs"].Value; v <= 0 {
		t.Errorf("durable: wal.syncs = %v, want above 0", v)
	}
}

// TestCountsRepeat: with one client and no timers, the count-class
// metrics of two same-seed runs are identical.
func TestCountsRepeat(t *testing.T) {
	for _, w := range []string{"ingest", "query"} {
		a, b := smallRun(t, w, false).Metrics, smallRun(t, w, false).Metrics
		for _, m := range []string{"write_amp", "write_ops_per_kop", "syncs_per_kop", "read_bytes_per_query",
			"reopen_read_kb", "space_bytes_per_ref"} {
			if a[m] != b[m] {
				t.Errorf("%s: %s differs between same-seed runs: %v vs %v", w, m, a[m], b[m])
			}
		}
		la, lb := smallRun(t, w, true).Metrics, smallRun(t, w, true).Metrics
		for _, d := range perLayer {
			bytes := strings.HasPrefix(d.Name, "storage.write_bytes.") || strings.HasPrefix(d.Name, "storage.read_bytes.")
			if bytes && la[d.Name] != lb[d.Name] {
				t.Errorf("%s: %s differs between same-seed runs: %v vs %v", w, d.Name, la[d.Name], lb[d.Name])
			}
		}
	}
}

// TestGeneratorOracle replays the generated stream into a plain model and
// compares it with the generator's own oracle; the same seed must give
// the same stream.
func TestGeneratorOracle(t *testing.T) {
	p := genParams{blocks: 1 << 10, theta: 0.5, removeShare: 0.4, churnShare: 0.1, audited: 64, ops: 20 * 500}
	g, g2 := newGenerator(42, p), newGenerator(42, p)
	live := map[backlog.Ref]bool{}
	buf, buf2 := make([]op, 500), make([]op, 500)
	removes := 0
	for range 20 {
		g.fillCP(buf)
		g2.fillCP(buf2)
		if !reflect.DeepEqual(buf, buf2) {
			t.Fatal("same seed, different streams")
		}
		for _, o := range buf {
			if o.remove {
				if !live[o.ref] {
					t.Fatalf("RemoveRef of a reference that is not live: %+v", o.ref)
				}
				delete(live, o.ref)
				removes++
			} else {
				if live[o.ref] {
					t.Fatalf("AddRef of a live reference: %+v", o.ref)
				}
				live[o.ref] = true
			}
		}
		if len(g.pending) != 0 {
			t.Fatalf("%d churned adds left unremoved at the end of a CP", len(g.pending))
		}
	}
	if g.liveRefs() != len(live) {
		t.Fatalf("generator counts %d live references, the model %d", g.liveRefs(), len(live))
	}
	if share := float64(removes) / (20 * 500); share < 0.35 || share > 0.45 {
		t.Errorf("remove share %.3f, want about 0.4", share)
	}
	for _, b := range g.auditList {
		var owners []backlog.Owner
		for r := range live {
			if r.Block == b {
				owners = append(owners, backlog.Owner{Inode: r.Inode, Offset: r.Offset, Line: r.Line, Length: r.Length, Live: true})
			}
		}
		if !g.check(b, owners) {
			t.Fatalf("oracle disagrees with the model on block %d", b)
		}
		if len(owners) > 0 && g.check(b, owners[1:]) {
			t.Fatalf("oracle accepted a missing owner on block %d", b)
		}
	}
}

func TestPercentile(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	// At least ten samples must lie beyond the percentile.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {99, 0.9, false}, {200, 0.95, true}, {24, 0.9, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {40, 0.75}, {100, 0.9}, {250, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100}, []float64{105}, "same"},
		{lower, []float64{100}, []float64{120}, "worse"},
		{lower, []float64{100}, []float64{80}, "better"},
		{higher, []float64{100}, []float64{80}, "worse"},
		{higher, []float64{100}, []float64{120}, "better"},
		{lower, []float64{80, 100, 100, 130}, []float64{120, 120, 120, 120}, "unresolved"},
		{lower, []float64{99, 100, 100, 101}, []float64{119, 120, 120, 121}, "worse"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
	// Same method as Python's statistics.quantiles(v, n=4).
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
}
