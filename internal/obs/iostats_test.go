package obs

import (
	"strings"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/storage"
)

func TestMetricNameEscaping(t *testing.T) {
	cases := []struct {
		base  string
		pairs []string
		want  string
	}{
		{"m", nil, "m"},
		{"m", []string{"src", "wal"}, `m{src="wal"}`},
		{"m", []string{"a", "1", "b", "2"}, `m{a="1",b="2"}`},
		{"m", []string{"src", `sl\ash`}, `m{src="sl\\ash"}`},
		{"m", []string{"src", `qu"ote`}, `m{src="qu\"ote"}`},
		{"m", []string{"src", "new\nline"}, `m{src="new\nline"}`},
	}
	for _, c := range cases {
		if got := MetricName(c.base, c.pairs...); got != c.want {
			t.Errorf("MetricName(%q, %q) = %q, want %q", c.base, c.pairs, got, c.want)
		}
	}
}

// TestPrometheusMultiLabelFamilies renders a registry holding several
// series of one family plus a labeled histogram and checks the exposition
// rules: one HELP/TYPE header per base name, per-series label sets
// preserved in registration order, and histogram label sets merged with
// the le label on every bucket line.
func TestPrometheusMultiLabelFamilies(t *testing.T) {
	r := NewRegistry()
	for _, src := range []string{"wal", "checkpoint", "query"} {
		src := src
		r.CounterFunc(MetricName("backlog_io_read_bytes_total", "src", src),
			"Bytes read, by purpose", func() uint64 { return 7 })
	}
	h := r.Histogram(MetricName("backlog_io_read_ns", "src", "wal"),
		"ReadAt latency", "ns", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	if n := strings.Count(out, "# TYPE backlog_io_read_bytes_total counter"); n != 1 {
		t.Errorf("family header emitted %d times, want 1\n%s", n, out)
	}
	// Snapshot ordering is sorted by full name (base + label set), so the
	// family's series render contiguously in a stable order regardless of
	// registration order: checkpoint, query, wal.
	ic := strings.Index(out, `backlog_io_read_bytes_total{src="checkpoint"} 7`)
	iq := strings.Index(out, `backlog_io_read_bytes_total{src="query"} 7`)
	iw := strings.Index(out, `backlog_io_read_bytes_total{src="wal"} 7`)
	if ic < 0 || iq < 0 || iw < 0 || !(ic < iq && iq < iw) {
		t.Errorf("per-source series missing or out of order (checkpoint@%d query@%d wal@%d)\n%s",
			ic, iq, iw, out)
	}
	for _, line := range []string{
		`backlog_io_read_ns_bucket{src="wal",le="10"} 1`,
		`backlog_io_read_ns_bucket{src="wal",le="100"} 2`,
		`backlog_io_read_ns_bucket{src="wal",le="+Inf"} 2`,
		`backlog_io_read_ns_sum{src="wal"} 55`,
		`backlog_io_read_ns_count{src="wal"} 2`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in\n%s", line, out)
		}
	}
}

// TestPrometheusRenderingDeterministic renders the same registry twice and
// expects byte-identical output — scrape diffing and the exposition tests
// above both rely on stable ordering.
func TestPrometheusRenderingDeterministic(t *testing.T) {
	r := NewRegistry()
	s := NewIOStats()
	s.Register(r)
	s.RecordWrite(storage.SrcWAL, 100, 0)
	s.RecordRead(storage.SrcQuery, 25, 0)
	s.RecordSync(storage.SrcManifest, 600*time.Microsecond)
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of the same registry differ")
	}
	if !strings.Contains(a.String(), `backlog_io_write_bytes_total{src="wal"} 100`) {
		t.Errorf("missing wal write series in\n%s", a.String())
	}
	if !strings.Contains(a.String(), `backlog_io_sync_ns_sum{src="manifest"} 600000`+"\n") {
		t.Errorf("missing the manifest's sync latency in\n%s", a.String())
	}
}

func TestIOStatsAccounting(t *testing.T) {
	s := NewIOStats()
	s.RecordWrite(storage.SrcWAL, 64, 0)
	s.RecordWrite(storage.SrcWAL, 36, 0)
	s.RecordRead(storage.SrcQuery, 50, 0)
	s.RecordSync(storage.SrcWAL, 0)
	s.RecordCreate(storage.SrcCheckpoint)
	s.RecordRemove(storage.SrcExpiry)

	if r, w := s.SourceBytes(storage.SrcWAL); r != 0 || w != 100 {
		t.Errorf("wal bytes = %d/%d, want 0/100", r, w)
	}
	tr, tw := s.Totals()
	if tr != 50 || tw != 100 {
		t.Errorf("totals = %d/%d, want 50/100", tr, tw)
	}
	snap := s.Snapshot()
	if len(snap) != storage.NumSources {
		t.Fatalf("snapshot has %d sources, want %d", len(snap), storage.NumSources)
	}
	var sumR, sumW uint64
	for i, io := range snap {
		if io.Source != storage.Source(i).String() {
			t.Errorf("snapshot[%d].Source = %q, want %q", i, io.Source, storage.Source(i))
		}
		sumR += io.ReadBytes
		sumW += io.WriteBytes
	}
	if sumR != tr || sumW != tw {
		t.Errorf("snapshot sums %d/%d != totals %d/%d", sumR, sumW, tr, tw)
	}
	if snap[storage.SrcWAL].WriteOps != 2 || snap[storage.SrcWAL].Syncs != 1 {
		t.Errorf("wal ops/syncs = %d/%d, want 2/1",
			snap[storage.SrcWAL].WriteOps, snap[storage.SrcWAL].Syncs)
	}
	if snap[storage.SrcCheckpoint].Creates != 1 || snap[storage.SrcExpiry].Removes != 1 {
		t.Error("creates/removes not attributed to their sources")
	}
	if s.WantsLatency() {
		t.Error("WantsLatency true before Register")
	}
	s.Register(NewRegistry())
	if !s.WantsLatency() {
		t.Error("WantsLatency false after Register")
	}
}

func TestWriteAmpWindow(t *testing.T) {
	w := NewWriteAmp(10 * time.Second)
	if w.Window() != 10*time.Second {
		t.Fatalf("window = %v", w.Window())
	}
	if NewWriteAmp(0).Window() != DefaultWriteAmpWindow {
		t.Error("zero window did not default")
	}

	t0 := time.Unix(1000, 0)
	u, d, span := w.Observe(t0, 100, 200)
	if u != 0 || d != 0 || span != 0 {
		t.Errorf("first observation = %d/%d/%v, want zeros", u, d, span)
	}
	u, d, span = w.Observe(t0.Add(4*time.Second), 300, 700)
	if u != 200 || d != 500 || span != 4*time.Second {
		t.Errorf("second observation = %d/%d/%v, want 200/500/4s", u, d, span)
	}
	// The t0 sample is older than the 10s window, but it is kept as the
	// baseline because the next sample (t0+4s) has not yet crossed the
	// boundary — the reported span covers the window rather than trailing
	// inside it.
	u, d, span = w.Observe(t0.Add(13*time.Second), 1000, 2000)
	if u != 900 || d != 1800 || span != 13*time.Second {
		t.Errorf("third observation = %d/%d/%v, want 900/1800/13s", u, d, span)
	}
	// A long stall: everything but the latest sample ages out.
	u, d, span = w.Observe(t0.Add(60*time.Second), 1500, 3000)
	if u != 500 || d != 1000 || span != 47*time.Second {
		t.Errorf("post-stall observation = %d/%d/%v, want 500/1000/47s", u, d, span)
	}
}
