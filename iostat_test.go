package backlog

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestIOReportPublicSurface checks the attribution surface end to end at
// the public API: DB.IOReport carries attributed per-source traffic, the
// labeled backlog_io_* families and write-amplification
// gauges render in /metrics, and /debug/io serves the same report as
// JSON.
func TestIOReportPublicSurface(t *testing.T) {
	db, err := Open(Config{InMemory: true, Metrics: true, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingest(t, db)

	rep := db.IOReport()
	if rep.TotalWriteBytes == 0 || rep.UserBytes == 0 || rep.WriteAmp == 0 {
		t.Errorf("empty report after ingest: %+v", rep)
	}
	var checkpointWrites uint64
	for _, s := range rep.Sources {
		if s.Source == "checkpoint" {
			checkpointWrites = s.WriteBytes
		}
		if s.Source == "unknown" && (s.ReadBytes > 0 || s.WriteBytes > 0) {
			t.Errorf("unattributed i/o at the public surface: %+v", s)
		}
	}
	if checkpointWrites == 0 {
		t.Error("no checkpoint writes attributed after Checkpoint")
	}

	var b strings.Builder
	if err := db.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`backlog_io_write_bytes_total{src="checkpoint"} %d`, checkpointWrites),
		"# TYPE backlog_io_read_ns histogram",
		"backlog_write_amp ",
		"backlog_write_amp_cumulative ",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/io", db.DebugAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/io status %d", resp.StatusCode)
	}
	var served IOReport
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.TotalWriteBytes < rep.TotalWriteBytes {
		t.Errorf("/debug/io report regressed the in-process one: %+v vs %+v", served, rep)
	}
}
