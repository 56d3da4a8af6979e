// Command fsimbench regenerates the fsim figures of the paper's evaluation
// (Figures 5–10) plus the Section 4.1 naive-baseline ablation, printing
// each figure's data series as an aligned table. Two experiments are not
// paper figures: "levels" (full vs stepped-merge maintenance, whose
// deterministic columns the golden file pins) and "obs" (the metrics-on
// overhead budget). Every other number is a row of bash bench/run.sh.
//
// Usage:
//
//	fsimbench -experiment fig5 [-scale full]
//	fsimbench -experiment all
//
// The default "small" scale finishes in seconds; "full" approaches the
// paper's configuration (hundreds of CPs of tens of thousands of ops) and
// takes minutes. Absolute values differ from the paper's hardware; the
// shapes are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/backlogfs/backlog/internal/experiments"
)

// experimentList is the one list of experiments: the -experiment help
// string, the validity check and the dispatch (in this order under "all")
// all read it.
var experimentList = []struct {
	name string
	fn   func(full bool) error
}{
	{"fig5", runFig5},
	{"fig6", runFig6},
	{"fig7", runFig7},
	{"fig8", runFig8},
	{"fig9", runFig9},
	{"fig10", runFig10},
	{"naive", runNaive},
	{"obs", runObs},
	{"levels", runLevels},
}

func experimentNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
}

func main() {
	names := strings.Join(experimentNames(), "|")
	exp := flag.String("experiment", "all", names+"|all")
	scale := flag.String("scale", "small", "small|full")
	flag.Parse()

	ran := false
	for _, e := range experimentList {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Printf("=== %s ===\n", e.name)
		if err := e.fn(*scale == "full"); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "fsimbench: unknown experiment %q (valid: %s|all)\n", *exp, names)
		os.Exit(2)
	}
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func fig5Config(full bool) experiments.Fig5Config {
	cfg := experiments.DefaultFig5Config()
	if full {
		cfg.CPs, cfg.OpsPerCP, cfg.SampleEvery = 1000, 8000, 20
	}
	return cfg
}

func runFig5(full bool) error {
	fmt.Println("Fig 5: synthetic workload maintenance overhead per block op (flat over time)")
	res, err := experiments.RunFig5(fig5Config(full))
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "CP\tops\tI/O writes per op\ttotal µs per op\tCPU µs per op")
	for _, s := range res.Samples {
		fmt.Fprintf(w, "%d\t%d\t%.4f\t%.2f\t%.2f\n", s.CP, s.Ops, s.WritesPerOp, s.TimePerOpUS, s.CPUPerOpUS)
	}
	return w.Flush()
}

func runFig6(full bool) error {
	fmt.Println("Fig 6: back-reference DB size as % of physical data, by maintenance cadence")
	cfg := fig5Config(full)
	intervals := []int{0, cfg.CPs / 5, cfg.CPs / 10}
	res, err := experiments.RunFig6(cfg, intervals)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintf(w, "CP\tnone\tevery %d\tevery %d\n", intervals[1], intervals[2])
	n := len(res.Series[0])
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%d\t%.2f%%\t%.2f%%\t%.2f%%\n",
			res.Series[0][i].CP,
			res.Series[0][i].SpacePct,
			res.Series[intervals[1]][i].SpacePct,
			res.Series[intervals[2]][i].SpacePct)
	}
	return w.Flush()
}

func fig7Config(full bool) experiments.Fig7Config {
	cfg := experiments.DefaultFig7Config()
	if full {
		cfg.Hours, cfg.OpsPerHour, cfg.CPsPerHour = 384, 4000, 12
	}
	return cfg
}

func runFig7(full bool) error {
	fmt.Println("Fig 7: NFS-trace maintenance overhead per block op, by hour")
	res, err := experiments.RunFig7(fig7Config(full))
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "hour\tblock ops\tI/O writes per op\ttotal µs per op\tCPU µs per op")
	for _, s := range res.Samples {
		fmt.Fprintf(w, "%d\t%d\t%.4f\t%.2f\t%.2f\n", s.Hour, s.BlockOps, s.WritesPerOp, s.TimePerOpUS, s.CPUPerOpUS)
	}
	return w.Flush()
}

func runFig8(full bool) error {
	fmt.Println("Fig 8: NFS-trace DB size as % of physical data, by maintenance cadence (hours)")
	cfg := fig7Config(full)
	intervals := []int{0, 48, 8}
	if !full {
		intervals = []int{0, cfg.Hours / 2, cfg.Hours / 12}
	}
	res, err := experiments.RunFig8(cfg, intervals)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintf(w, "hour\tnone\tevery %dh\tevery %dh\n", intervals[1], intervals[2])
	for i := range res.Series[0] {
		fmt.Fprintf(w, "%d\t%.2f%%\t%.2f%%\t%.2f%%\n",
			res.Series[0][i].Hour,
			res.Series[0][i].SpacePct,
			res.Series[intervals[1]][i].SpacePct,
			res.Series[intervals[2]][i].SpacePct)
	}
	return w.Flush()
}

func runFig9(full bool) error {
	fmt.Println("Fig 9: query throughput and reads/query vs run length and maintenance staleness")
	cfg := experiments.DefaultFig9Config()
	if full {
		cfg.CPs, cfg.OpsPerCP, cfg.Queries = 1000, 8000, 8192
		cfg.RunLengths = []int{1, 10, 100, 1000}
		cfg.StalenessCPs = []int{0, 200, 400, 600, 800, -1}
	}
	res, err := experiments.RunFig9(cfg)
	if err != nil {
		return err
	}
	sort.Slice(res.Points, func(i, j int) bool {
		if res.Points[i].StalenessCPs != res.Points[j].StalenessCPs {
			return res.Points[i].StalenessCPs < res.Points[j].StalenessCPs
		}
		return res.Points[i].RunLength < res.Points[j].RunLength
	})
	w := tw()
	fmt.Fprintln(w, "CPs since maintenance\trun length\tqueries/s\tI/O reads per query\towners per query")
	for _, p := range res.Points {
		stale := fmt.Sprintf("%d", p.StalenessCPs)
		if p.StalenessCPs < 0 {
			stale = "never maintained"
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.2f\t%.2f\n", stale, p.RunLength, p.QueriesPerSec, p.ReadsPerQuery, p.OwnersPerQry)
	}
	return w.Flush()
}

func runFig10(full bool) error {
	fmt.Println("Fig 10: query performance over time, before vs after maintenance")
	cfg := experiments.DefaultFig10Config()
	if full {
		cfg.CPs, cfg.MeasureEvery, cfg.OpsPerCP, cfg.Queries = 1000, 100, 8000, 8192
		cfg.RunLengths = []int{1024, 2048, 4096, 8192}
	}
	res, err := experiments.RunFig10(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "CP\trun length\tbefore q/s\tafter q/s\tbefore reads/q\tafter reads/q")
	for i := range res.Before {
		b, a := res.Before[i], res.After[i]
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\t%.2f\t%.2f\n",
			b.CP, b.RunLength, b.QueriesPerSec, a.QueriesPerSec, b.ReadsPerQuery, a.ReadsPerQuery)
	}
	return w.Flush()
}

func runNaive(full bool) error {
	fmt.Println("Naive ablation (Section 4.1): read-modify-write table vs Backlog, I/O per op over time")
	cfg := experiments.DefaultNaiveConfig()
	if full {
		cfg.CPs, cfg.OpsPerCP, cfg.SampleEvery = 600, 8000, 20
		cfg.CacheBytes = 4 << 20
	}
	res, err := experiments.RunNaiveAblation(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "CP\tnaive I/O per op\tnaive µs per op\tbacklog I/O per op\tbacklog µs per op")
	for i := range res.Naive {
		n := res.Naive[i]
		var b experiments.NaiveSample
		if i < len(res.Backlog) {
			b = res.Backlog[i]
		}
		fmt.Fprintf(w, "%d\t%.3f\t%.2f\t%.3f\t%.2f\n", n.CP, n.IOPerOp, n.TimePerOpUS, b.IOPerOp, b.TimePerOpUS)
	}
	return w.Flush()
}

func runObs(full bool) error {
	fmt.Println("Observability overhead: mixed update/query throughput with instrumentation off and on")
	fmt.Println("(not a paper figure; the budget is <=2% enabled overhead, and the figure experiments")
	fmt.Println(" run with observability disabled, where the instrumented paths take no timestamps)")
	cfg := experiments.DefaultObsConfig()
	if full {
		cfg.Ops = 4_000_000
		cfg.Rounds = 11
	}
	pts, err := experiments.RunObs(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "configuration\tops\tops/sec\toverhead\ttrace events")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.1f%%\t%d\n", p.Name, p.Ops, p.OpsPerSec, p.OverheadPct, p.TraceEvents)
	}
	return w.Flush()
}

func runLevels(full bool) error {
	fmt.Println("Maintenance policies: compaction write bytes and query latency, full vs stepped-merge")
	fmt.Println("(not a paper figure; PolicyFull is the paper's merge-to-one maintenance, PolicyLeveled")
	fmt.Println(" merges Fanout runs of a level into one run of the next, a cascade of levels in one")
	fmt.Println(" merge — less merge I/O under sustained ingest at every fanout swept, at the price of")
	fmt.Println(" a deeper run set for queries to visit)")
	cfg := experiments.DefaultLevelsConfig()
	if full {
		cfg.CPs, cfg.OpsPerCP, cfg.Queries = 256, 8000, 8192
	}
	res, err := experiments.RunLevels(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "policy\tfanout\tcompact MB\twrite amp\tbytes vs full\truns\tmax level\tmaintain ms\tquery mean µs\tp99 µs\tp99 vs full")
	for _, p := range res.Points {
		fan := "-"
		if p.Fanout > 0 {
			fan = fmt.Sprintf("%d", p.Fanout)
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.2f\t%.2fx fewer\t%d\t%d\t%.0f\t%.1f\t%.1f\t%.2fx\n",
			p.Policy, fan, float64(p.CompactWriteBytes)/1e6, p.WriteAmp, p.BytesVsFull,
			p.Runs, p.MaxLevel, p.MaintainMS, p.QueryMeanUS, p.QueryP99US, p.P99VsFull)
	}
	return w.Flush()
}
