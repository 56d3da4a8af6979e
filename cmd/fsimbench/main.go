// Command fsimbench regenerates the fsim figures of the paper's evaluation
// (Figures 5–10) plus the Section 4.1 naive-baseline ablation, printing
// each figure's data series as an aligned table.
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
	"text/tabwriter"

	"github.com/backlogfs/backlog/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "fig5|fig6|fig7|fig8|fig9|fig10|naive|ingest|interference|cpstall|expire|compress|obs|iostat|levels|all")
	scale := flag.String("scale", "small", "small|full")
	flag.Parse()

	full := *scale == "full"
	run := func(name string, fn func(bool) error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		if err := fn(full); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig5", runFig5)
	run("fig6", runFig6)
	run("fig7", runFig7)
	run("fig8", runFig8)
	run("fig9", runFig9)
	run("fig10", runFig10)
	run("naive", runNaive)
	run("ingest", runIngest)
	run("interference", runInterference)
	run("cpstall", runCPStall)
	run("expire", runExpire)
	run("compress", runCompress)
	run("obs", runObs)
	run("iostat", runIostat)
	run("levels", runLevels)
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

func runInterference(full bool) error {
	fmt.Println("Compaction interference: query latency while a full compaction runs in the background")
	fmt.Println("(not a paper figure; queries read through pinned run-set views and never block on the merge)")
	cfg := experiments.DefaultInterferenceConfig()
	if full {
		cfg.CPs, cfg.OpsPerCP, cfg.Queries = 200, 8000, 16384
	}
	res, err := experiments.RunInterference(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "phase\tqueries\tqueries/s\tmean µs\tp99 µs\tmax µs")
	for _, p := range res.Phases {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.1f\t%.1f\t%.1f\n",
			p.Phase, p.Queries, p.QueriesPerSec, p.MeanUS, p.P99US, p.MaxUS)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("compaction: %.1f ms, %d -> %d runs\n", res.CompactionMS, res.RunsBefore, res.RunsAfter)
	return nil
}

func runCPStall(full bool) error {
	fmt.Println("Checkpoint stall: update/query latency while a checkpoint flush runs in the background")
	fmt.Println("(not a paper figure; the frozen-write-store checkpoint holds the structural lock only")
	fmt.Println(" for its freeze and install critical sections — run-building I/O is lock-free)")
	cfg := experiments.DefaultCPStallConfig()
	if full {
		cfg.PrefillOps, cfg.MeasureOps = 500_000, 100_000
	}
	res, err := experiments.RunCPStall(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "phase\tupdates\tupdates/s\tmean µs\tp99 µs\tmax µs\tquery mean µs")
	for _, p := range res.Phases {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.2f\t%.1f\t%.1f\t%.1f\n",
			p.Phase, p.Ops, p.OpsPerSec, p.MeanUS, p.P99US, p.MaxUS, p.QueryMeanUS)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("checkpoint: %.1f ms wall (%d records); exclusive lock held %.0f µs (swap) + %.0f µs (install); flush %.1f ms lock-free\n",
		res.CheckpointMS, res.RecordsFlushed, res.SwapUS, res.InstallUS, res.FlushMS)
	return nil
}

func runExpire(full bool) error {
	fmt.Println("Drop-based expiry vs compaction: I/O to reclaim the same deleted snapshots")
	fmt.Println("(not a paper figure; expiry drops whole CP-windowed runs by manifest edit,")
	fmt.Println(" where the paper's maintenance reads and rewrites every surviving record)")
	cfg := experiments.DefaultExpireConfig()
	if full {
		cfg.Epochs, cfg.OpsPerEpoch = 32, 8000
	}
	res, err := experiments.RunExpire(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "path\truns reclaimed\trecords reclaimed\tbytes read\tbytes written\tms")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\n",
			p.Path, p.RunsReclaimed, p.RecordsReclaimed, p.BytesRead, p.BytesWritten, p.Millis)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("compaction-to-expiry I/O ratio: %.0fx\n", res.IORatio)
	return nil
}

func runCompress(full bool) error {
	fmt.Println("Run-format comparison: raw v1 vs column-delta v2 on identical workloads")
	fmt.Println("(not a paper figure; Section 8 predicts the tables are \"highly compressible,")
	fmt.Println(" especially if we compress them by columns\" — the figure experiments pin the")
	fmt.Println(" raw format for byte-identical series)")
	cfg := experiments.DefaultCompressConfig()
	if full {
		cfg.CPs, cfg.OpsPerCP, cfg.Queries = 50, 20000, 8192
	}
	res, err := experiments.RunCompress(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "format\tfrom bytes\tto bytes\tcombined bytes\ttotal bytes\tcheckpoint write bytes\tcold query µs\twarm query µs")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\n",
			p.Format, p.TableBytes["from"], p.TableBytes["to"], p.TableBytes["combined"],
			p.RunBytes, p.CheckpointWriteBytes, p.ColdQueryUS, p.WarmQueryUS)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("combined-table compression: %.2fx; all tables: %.2fx; checkpoint write bytes: %.2fx fewer; warm query slowdown: %.2fx\n",
		res.CombinedRatio, res.TotalRatio, res.WriteRatio, res.WarmSlowdown)
	return nil
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

func runIostat(full bool) error {
	fmt.Println("I/O attribution overhead: mixed update/query throughput with attribution off and on")
	fmt.Println("(not a paper figure; attribution is ON by default, so its budget is <=2% — a few")
	fmt.Println(" atomic adds per I/O, clock reads only once a metrics registry is attached. The")
	fmt.Println(" run also audits the accounting: per-source bytes must sum to the totals and the")
	fmt.Println(" hot paths must leak no unattributed i/o)")
	cfg := experiments.DefaultIostatConfig()
	if full {
		cfg.Ops = 4_000_000
		cfg.Rounds = 11
	}
	pts, err := experiments.RunIostat(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "configuration\tops\tops/sec\toverhead\tdevice write bytes\twrite amp")
	for _, p := range pts {
		wb, wa := "-", "-"
		if p.Report.Attribution {
			wb = fmt.Sprintf("%d", p.Report.TotalWriteBytes)
			wa = fmt.Sprintf("%.2f", p.Report.WriteAmp)
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.1f%%\t%s\t%s\n", p.Name, p.Ops, p.OpsPerSec, p.OverheadPct, wb, wa)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	for _, p := range pts {
		if p.Name != "attributed" {
			continue
		}
		fmt.Println("attributed device traffic by purpose (final round):")
		for _, s := range p.Report.Sources {
			if s.ReadBytes == 0 && s.WriteBytes == 0 && s.Syncs == 0 && s.Creates == 0 {
				continue
			}
			fmt.Printf("  %-10s %12d read  %12d written  (%d syncs, %d creates)\n",
				s.Source, s.ReadBytes, s.WriteBytes, s.Syncs, s.Creates)
		}
	}
	return nil
}

func runLevels(full bool) error {
	fmt.Println("Maintenance policies: compaction write bytes and query latency, full vs stepped-merge")
	fmt.Println("(not a paper figure; PolicyFull is the paper's merge-to-one maintenance, PolicyLeveled")
	fmt.Println(" merges Fanout runs of a level into one run of the next — strictly less merge I/O")
	fmt.Println(" under sustained ingest, at the price of a deeper run set for queries to visit)")
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

func runIngest(full bool) error {
	fmt.Println("Ingest scaling: parallel AddRef throughput by write-shard count (not a paper figure)")
	cfg := experiments.DefaultIngestConfig()
	if full {
		cfg.Ops = 4_000_000
	}
	pts, err := experiments.RunIngest(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "shards\tops\tops/sec\tspeedup vs 1 shard")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%.2fx\n", p.Shards, p.Ops, p.OpsPerSec, p.Speedup)
	}
	return w.Flush()
}
