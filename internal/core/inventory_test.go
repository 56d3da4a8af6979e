package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/wal"
)

var update = flag.Bool("update", false, "rewrite testdata/series.golden from the series the engine registers")

const seriesGolden = "testdata/series.golden"

// registeredSeries opens an engine with every metrics surface on — a
// registry, a Sync log, a slow-op threshold, the page cache and two write
// shards — and returns what it registers, with its counter table.
func registeredSeries(t *testing.T) (obs.Snapshot, []counterRow) {
	t.Helper()
	reg := obs.NewRegistry()
	env := newTestEnv(t, Options{Metrics: reg, Durability: wal.Sync, SlowOpThreshold: time.Second,
		CacheBytes: 1 << 20, WriteShards: 2})
	defer env.eng.Close()
	return reg.Snapshot(), env.eng.counterTable()
}

// inventory renders every series of s as a "name kind help" line, sorted.
func inventory(s obs.Snapshot) []string {
	var lines []string
	for _, c := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s counter %s", c.Name, c.Help))
	}
	for _, g := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s gauge %s", g.Name, g.Help))
	}
	for _, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s histogram %s", h.Name, h.Help))
	}
	slices.Sort(lines)
	return lines
}

// TestSeriesInventory compares every series the engine registers with
// testdata/series.golden (go test -run TestSeriesInventory -update
// rewrites it), so no series appears, disappears or changes its help
// unnoticed. Every counter is a row of counterTable, or one of the
// counters that read another package's state.
func TestSeriesInventory(t *testing.T) {
	s, rows := registeredSeries(t)
	got := strings.Join(inventory(s), "\n") + "\n"
	if *update {
		if err := os.WriteFile(seriesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(seriesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for _, l := range gotLines {
			if !slices.Contains(wantLines, l) {
				t.Errorf("registered, not in %s: %s", seriesGolden, l)
			}
		}
		for _, l := range wantLines {
			if !slices.Contains(gotLines, l) {
				t.Errorf("in %s, not registered: %s", seriesGolden, l)
			}
		}
	}

	outside := []string{"backlog_decoded_cache_hits_total", "backlog_decoded_cache_misses_total", "backlog_slow_ops_total"}
	for _, c := range s.Counters {
		inTable := slices.ContainsFunc(rows, func(r counterRow) bool { return r.name == c.Name })
		if !inTable && !slices.Contains(outside, c.Name) && !strings.HasPrefix(c.Name, "backlog_io_") {
			t.Errorf("counter %s is registered outside counterTable", c.Name)
		}
	}
}

// seriesMention matches a series name in prose, or a family prefix ending
// in _ or *. A label selector after a name ({shard="N"}) is not part of
// it; a brace group (backlog_checkpoint_{freeze,flush}_ns) leaves the
// prefix before the brace, which is checked as a family.
var seriesMention = regexp.MustCompile(`backlog_[a-z0-9_]*\*?`)

// TestDocsNameOnlyRegisteredSeries: every series, and every family prefix,
// that README.md or the package doc names is one the engine registers.
func TestDocsNameOnlyRegisteredSeries(t *testing.T) {
	s, _ := registeredSeries(t)
	var names []string
	for _, line := range inventory(s) {
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		names = append(names, name)
	}
	for _, doc := range []string{"README.md", "backlog.go"} {
		src, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		if doc == "backlog.go" {
			// The package doc only: the code below it is compiled, not read.
			src = []byte(strings.SplitN(string(src), "\npackage backlog\n", 2)[0])
		}
		for _, m := range seriesMention.FindAllString(string(src), -1) {
			known := slices.Contains(names, m)
			if family := strings.TrimSuffix(m, "*"); strings.HasSuffix(family, "_") {
				known = slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, family) })
			}
			if !known {
				t.Errorf("%s names %q, which the engine does not register (see %s)", doc, m, seriesGolden)
			}
		}
	}
}
