package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/deterministic.golden from this run")

// TestDeterministicColumnsGolden is the executable form of "the paper
// figures' deterministic columns are byte-identical": it runs fig5, fig6,
// fig9, fig10 and the levels experiment at a small scale and compares
// every column that is a pure function of the code — page writes per op,
// database and physical bytes, I/O reads per query, compaction write
// bytes, run count and deepest level — against a committed golden file.
// Wall-clock columns are left out. None of the numbers depends on the
// host's core count: a checkpoint writes the same runs at any write-shard
// count (levels runs at the engine's default, GOMAXPROCS).
//
// A change that moves any of these numbers is a change to how much I/O
// the store does: regenerate with
//
//	go test -run TestDeterministicColumnsGolden ./internal/experiments/ -update
//
// and say why in the same commit.
func TestDeterministicColumnsGolden(t *testing.T) {
	var out bytes.Buffer

	fig5cfg := Fig5Config{CPs: 30, OpsPerCP: 400, DedupRate: 0.10, Seed: 1, SampleEvery: 3}
	writeFig5 := func(label string, samples []CPSample) {
		for _, s := range samples {
			fmt.Fprintf(&out, "%s cp=%d ops=%d writes_per_op=%.9f db_bytes=%d physical_bytes=%d\n",
				label, s.CP, s.Ops, s.WritesPerOp, s.DBBytes, s.PhysicalBytes)
		}
	}
	fig5, err := RunFig5(fig5cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeFig5("fig5", fig5.Samples)

	fig6, err := RunFig6(fig5cfg, []int{0, 10, 5})
	if err != nil {
		t.Fatal(err)
	}
	every := make([]int, 0, len(fig6.Series))
	for m := range fig6.Series {
		every = append(every, m)
	}
	sort.Ints(every)
	for _, m := range every {
		writeFig5(fmt.Sprintf("fig6 maintain_every=%d", m), fig6.Series[m])
	}

	fig9, err := RunFig9(Fig9Config{
		CPs: 24, OpsPerCP: 400, Queries: 256,
		RunLengths:   []int{1, 64},
		StalenessCPs: []int{0, 8, -1},
		DedupRate:    0.10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig9.Points {
		fmt.Fprintf(&out, "fig9 staleness=%d run_length=%d reads_per_query=%.9f owners_per_query=%.9f\n",
			p.StalenessCPs, p.RunLength, p.ReadsPerQuery, p.OwnersPerQry)
	}

	fig10, err := RunFig10(Fig10Config{
		CPs: 30, MeasureEvery: 10, OpsPerCP: 300, Queries: 128,
		RunLengths: []int{32}, DedupRate: 0.10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []struct {
		label  string
		points []Fig10Point
	}{{"before", fig10.Before}, {"after", fig10.After}} {
		for _, p := range series.points {
			fmt.Fprintf(&out, "fig10 %s cp=%d run_length=%d reads_per_query=%.9f\n",
				series.label, p.CP, p.RunLength, p.ReadsPerQuery)
		}
	}

	levels := DefaultLevelsConfig()
	levels.CPs = 48
	levels.OpsPerCP = 400
	levels.Queries = 1
	levels.Fanouts = []int{2, 4}
	lres, err := RunLevels(levels)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lres.Points {
		fmt.Fprintf(&out, "levels policy=%s fanout=%d compact_write_bytes=%d runs=%d max_level=%d\n",
			p.Policy, p.Fanout, p.CompactWriteBytes, p.Runs, p.MaxLevel)
	}

	golden := filepath.Join("testdata", "deterministic.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(out.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
}
