// Command btrfsbench regenerates Table 1 of the paper: the btrfs
// micro-benchmarks (file create/delete at two CP cadences) and the three
// application workloads (dbench CIFS, FileBench /var/mail, PostMark),
// each in three configurations — Base (no back references), Original
// (btrfs-style inline back references), and Backlog.
//
// Usage:
//
//	btrfsbench [-files 8192] [-scale full] [-shards 8] [-durability sync]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"github.com/backlogfs/backlog/internal/experiments"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/wal"
)

func main() {
	files := flag.Int("files", 0, "file count for microbenchmarks (0 = scale default)")
	scale := flag.String("scale", "small", "small|full")
	shards := flag.Int("shards", 1, "Backlog write-store shards (1 = paper-faithful single write store, 0 = GOMAXPROCS)")
	durability := flag.String("durability", "checkpoint-only",
		"Backlog durability mode: checkpoint-only (paper-faithful)|buffered|sync")
	debugAddr := flag.String("debug-addr", "",
		"serve live Backlog metrics (/metrics, /debug/vars, pprof) on this address while the benchmarks run")
	flag.Parse()
	dmode, err := wal.ParseDurability(*durability)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := experiments.DefaultTable1Config()
	if *scale == "small" {
		cfg.MicroFiles = 2048
		cfg.DbenchOps = 6000
		cfg.VarmailIters = 1000
		cfg.PostmarkTx = 6000
	}
	if *files > 0 {
		cfg.MicroFiles = *files
	}
	cfg.WriteShards = *shards
	cfg.Durability = dmode
	if *debugAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		srv, err := obs.Serve(*debugAddr, cfg.Metrics, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug listener on http://%s/metrics\n", srv.Addr())
	}

	rows, err := experiments.RunTable1(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("Table 1: btrfs benchmarks (Base = no backrefs, Original = btrfs-native, Backlog = this library)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tBase\tOriginal\tBacklog\tOverhead")
	for _, r := range rows {
		switch r.Unit {
		case "ms/op":
			fmt.Fprintf(w, "%s\t%.3f ms\t%.3f ms\t%.3f ms\t%.1f%%\n",
				r.Name, r.Base, r.Original, r.Backlog, r.OverheadPct)
		case "MB/s":
			fmt.Fprintf(w, "%s\t%.2f MB/s\t%.2f MB/s\t%.2f MB/s\t%.1f%%\n",
				r.Name, r.Base, r.Original, r.Backlog, r.OverheadPct)
		default:
			fmt.Fprintf(w, "%s\t%.0f ops/s\t%.0f ops/s\t%.0f ops/s\t%.1f%%\n",
				r.Name, r.Base, r.Original, r.Backlog, r.OverheadPct)
		}
	}
	w.Flush()
}
