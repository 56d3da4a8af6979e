// Command backlogctl inspects and maintains a Backlog database directory.
//
// Usage:
//
//	backlogctl stats       -dir /path/to/db [-json]
//	backlogctl lines       -dir /path/to/db
//	backlogctl query       -dir /path/to/db -block 12345 [-n 16]
//	backlogctl compact     -dir /path/to/db
//	backlogctl expire      -dir /path/to/db -retention live
//	backlogctl metrics     -dir /path/to/db [-watch [-interval 2s]]
//	backlogctl metrics     -addr localhost:6060 [-watch]
//	backlogctl iostat      -dir /path/to/db [-json]
//	backlogctl iostat      -addr localhost:6060 [-watch [-interval 2s]] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/backlogfs/backlog"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: backlogctl <command> [flags]

commands:
  stats        print database size, counters, and per-partition run CP windows
  lines        print snapshot lines and retained versions
  query        print the owners of a block (or a run of blocks with -n)
  compact      run database maintenance
  expire       drop runs below the reclaim horizon (use -retention live)
  metrics      print metrics in Prometheus text format; -watch refreshes
               continuously; -addr scrapes a running process's debug listener
               instead of opening -dir
  iostat       print purpose-tagged I/O accounting: per-source device bytes
               and ops plus the write-amplification monitor; -addr scrapes a
               running process's /debug/io (with -watch to refresh), -dir
               opens the directory and reports the open's own recovery I/O
`)
	os.Exit(2)
}

// clearScreen is the ANSI home+clear sequence -watch uses between frames.
const clearScreen = "\033[H\033[2J"

// scrape fetches path from a running process's debug listener
// (Config.DebugAddr) — the counters there are the live process's, which a
// fresh open of the same directory cannot see — and hands the body to
// render; with watch it repeats every interval.
func scrape(addr, path string, watch bool, interval time.Duration, render func(body []byte) error) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + addr
	}
	url = strings.TrimSuffix(url, "/") + path
	for {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", url, resp.Status)
		}
		if watch {
			fmt.Printf("%s# %s @ %s\n", clearScreen, url, time.Now().Format(time.RFC3339))
		}
		if err := render(body); err != nil {
			return fmt.Errorf("%s: %w", url, err)
		}
		if !watch {
			return nil
		}
		time.Sleep(interval)
	}
}

// printBody writes a scraped body verbatim.
func printBody(body []byte) error {
	_, err := os.Stdout.Write(body)
	return err
}

// printIOReport renders an attribution report as the iostat table:
// per-source device traffic, totals, and the write-amplification monitor.
func printIOReport(rep backlog.IOReport) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "source\tread bytes\tread ops\twrite bytes\twrite ops\tsyncs\tcreates\tremoves")
	for _, s := range rep.Sources {
		if s.ReadBytes == 0 && s.ReadOps == 0 && s.WriteBytes == 0 && s.WriteOps == 0 &&
			s.Syncs == 0 && s.Creates == 0 && s.Removes == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			s.Source, s.ReadBytes, s.ReadOps, s.WriteBytes, s.WriteOps,
			s.Syncs, s.Creates, s.Removes)
	}
	fmt.Fprintf(w, "total\t%d\t\t%d\t\t\t\t\n", rep.TotalReadBytes, rep.TotalWriteBytes)
	w.Flush()
	fmt.Printf("user bytes in:     %d\n", rep.UserBytes)
	fmt.Printf("write amp:         %.2f cumulative", rep.WriteAmp)
	if rep.WindowSeconds > 0 {
		fmt.Printf(", %.2f over last %.0fs (%d user / %d device bytes)",
			rep.WindowWriteAmp, rep.WindowSeconds, rep.WindowUserBytes, rep.WindowWriteBytes)
	}
	fmt.Println()
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	// An unknown command is refused before the directory is opened.
	switch cmd {
	case "stats", "lines", "query", "compact", "expire", "metrics", "iostat":
	default:
		usage()
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "database directory (required)")
	block := fs.Uint64("block", 0, "block number (query)")
	n := fs.Int("n", 1, "number of consecutive blocks to query")
	shards := fs.Int("shards", 0, "write-store shards (0 = GOMAXPROCS)")
	partitions := fs.Int("partitions", 1, "read-store partitions (must match the database on disk)")
	span := fs.Uint64("span", 0, "blocks per partition (required when -partitions > 1)")
	durability := fs.String("durability", "checkpoint-only", "durability mode: checkpoint-only|buffered|sync")
	policy := fs.String("policy", "full", "compaction policy: full|leveled (compact -policy leveled runs a maintenance pass)")
	fanout := fs.Int("fanout", 0, "stepped-merge fanout for -policy leveled (0 = default)")
	retention := fs.String("retention", "all", "retention policy: all|live (live enables drop-based expiry)")
	jsonOut := fs.Bool("json", false, "machine-readable JSON output (stats)")
	addr := fs.String("addr", "", "scrape a running process's debug listener instead of opening -dir (metrics)")
	watch := fs.Bool("watch", false, "refresh continuously (metrics)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval with -watch (metrics)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars, and pprof on this address while the command runs")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if (cmd == "metrics" || cmd == "iostat") && *addr != "" {
		path, render := "/metrics", printBody
		if cmd == "iostat" {
			path = "/debug/io"
			if !*jsonOut {
				render = func(body []byte) error {
					var rep backlog.IOReport
					if err := json.Unmarshal(body, &rep); err != nil {
						return err
					}
					printIOReport(rep)
					return nil
				}
			}
		}
		if err := scrape(*addr, path, *watch, *interval, render); err != nil {
			fmt.Fprintln(os.Stderr, "backlogctl:", err)
			os.Exit(1)
		}
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "backlogctl: -dir is required")
		os.Exit(2)
	}
	dmode, err := backlog.ParseDurability(*durability)
	if err != nil {
		fmt.Fprintln(os.Stderr, "backlogctl:", err)
		os.Exit(2)
	}
	var rmode backlog.RetentionPolicy
	switch *retention {
	case "all":
		rmode = backlog.RetainAll
	case "live":
		rmode = backlog.RetainLive
	default:
		fmt.Fprintf(os.Stderr, "backlogctl: unknown -retention %q (want all or live)\n", *retention)
		os.Exit(2)
	}
	pmode, err := backlog.ParseCompactionPolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "backlogctl:", err)
		os.Exit(2)
	}

	db, err := backlog.Open(backlog.Config{
		Dir: *dir, WriteShards: *shards, Durability: dmode,
		Partitions: *partitions, PartitionSpan: *span,
		CompactionPolicy: pmode, Fanout: *fanout, Retention: rmode,
		Metrics: cmd == "metrics" || cmd == "stats", DebugAddr: *debugAddr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "backlogctl:", err)
		os.Exit(1)
	}
	defer db.Close()

	switch cmd {
	case "metrics":
		for {
			if *watch {
				fmt.Printf("%s# %s @ %s\n", clearScreen, *dir, time.Now().Format(time.RFC3339))
			}
			if err := db.WriteMetrics(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "backlogctl:", err)
				os.Exit(1)
			}
			if !*watch {
				break
			}
			time.Sleep(*interval)
		}
	case "iostat":
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(db.IOReport()); err != nil {
				fmt.Fprintln(os.Stderr, "backlogctl:", err)
				os.Exit(1)
			}
			break
		}
		// A fresh open sees only its own I/O, i.e. the cost of recovering
		// this directory (the manifest, catalog included; run headers; WAL
		// replay); use -addr
		// to observe a live process's steady-state traffic.
		printIOReport(db.IOReport())
	case "stats":
		// Per-level shape of the run set — the signal for choosing a
		// maintenance policy and reading write amplification — shared by the
		// JSON and text renderings.
		type levelAgg struct {
			Level   int
			Runs    int
			Records uint64
			Bytes   int64
		}
		aggregate := func(runs []backlog.RunInfo) []levelAgg {
			byLevel := map[int]*levelAgg{}
			maxLevel := 0
			for _, r := range runs {
				la := byLevel[r.Level]
				if la == nil {
					la = &levelAgg{Level: r.Level}
					byLevel[r.Level] = la
				}
				la.Runs++
				la.Records += r.Records
				la.Bytes += r.SizeBytes
				if r.Level > maxLevel {
					maxLevel = r.Level
				}
			}
			var out []levelAgg
			for l := 0; l <= maxLevel; l++ {
				if la := byLevel[l]; la != nil {
					out = append(out, *la)
				}
			}
			return out
		}
		if *jsonOut {
			st := db.Stats()
			out := struct {
				CP                   uint64
				SizeBytes            int64
				WriteShards          int
				Durability           string
				CompactionWriteBytes uint64
				Stats                backlog.Stats
				Maintenance          backlog.MaintenanceStats
				Levels               []levelAgg
				Runs                 []backlog.RunInfo
			}{db.CP(), db.SizeBytes(), db.WriteShards(), db.Durability().String(),
				st.CompactWriteBytes, st, db.MaintenanceStats(),
				aggregate(db.Runs()), db.Runs()}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(out); err != nil {
				fmt.Fprintln(os.Stderr, "backlogctl:", err)
				os.Exit(1)
			}
			break
		}
		st := db.Stats()
		fmt.Printf("consistency point: %d\n", db.CP())
		fmt.Printf("database size:     %d bytes\n", db.SizeBytes())
		fmt.Printf("write shards:      %d\n", db.WriteShards())
		fmt.Printf("durability:        %s\n", db.Durability())
		if st.WALReplayed > 0 {
			fmt.Printf("wal replayed:      %d\n", st.WALReplayed)
		}
		if db.Durability() != backlog.DurabilityCheckpointOnly {
			// Like the counters below, this process's own traffic.
			fmt.Printf("wal:               %d appends in %d flushes (%.2f records per batch); %d gathers, %d filled\n",
				st.WALAppends, st.WALBatches, float64(st.WALAppends)/float64(max(st.WALBatches, 1)),
				st.WALGathers, st.WALGathersFilled)
		}
		fmt.Printf("refs added:        %d\n", st.RefsAdded)
		fmt.Printf("refs removed:      %d\n", st.RefsRemoved)
		fmt.Printf("checkpoints:       %d\n", st.Checkpoints)
		if st.Checkpoints > 0 {
			// The stall a checkpoint imposes on updates/queries is only its
			// two exclusive-lock critical sections; the flush between them
			// holds no structural lock.
			ms := db.Metrics()
			freeze, _ := ms.Histogram("backlog_checkpoint_freeze_ns")
			install, _ := ms.Histogram("backlog_checkpoint_install_ns")
			flush, _ := ms.Histogram("backlog_checkpoint_flush_ns")
			fmt.Printf("checkpoint stall:  %.0f µs exclusive-lock total (%.1f µs/cp: swap %.1f + install %.1f), %.1f ms flush lock-free\n",
				float64(freeze.Sum+install.Sum)/1e3,
				float64(freeze.Sum+install.Sum)/1e3/float64(st.Checkpoints),
				float64(freeze.Sum)/1e3/float64(st.Checkpoints),
				float64(install.Sum)/1e3/float64(st.Checkpoints),
				float64(flush.Sum)/1e6)
		}
		fmt.Printf("compactions:       %d\n", st.Compactions)
		fmt.Printf("compaction bytes:  %d written\n", st.CompactWriteBytes)
		fmt.Printf("records flushed:   %d\n", st.RecordsFlushed)
		fmt.Printf("records purged:    %d\n", st.RecordsPurged)
		if st.Expiries > 0 {
			fmt.Printf("expiries:          %d (%d runs, %d records dropped unread)\n",
				st.Expiries, st.RunsExpired, st.RecordsExpired)
		}
		ms := db.MaintenanceStats()
		fmt.Printf("policy:            %s (fanout %d)\n", ms.Policy, ms.Fanout)
		fmt.Printf("worst partition:   %d runs, %d jobs pending\n", ms.MaxRuns, ms.PendingJobs)
		if runs := db.Runs(); len(runs) > 0 {
			fmt.Printf("levels:\n")
			w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(w, "  level\truns\trecords\tphysical")
			for _, la := range aggregate(runs) {
				fmt.Fprintf(w, "  %d\t%d\t%d\t%d\n", la.Level, la.Runs, la.Records, la.Bytes)
			}
			w.Flush()
			fmt.Printf("runs:\n")
			w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(w, "  table\tpart\tlevel\tformat\trecords\tlogical\tphysical\tcp window\toverrides")
			for _, r := range runs {
				window := "unknown"
				if r.CPWindowKnown {
					window = fmt.Sprintf("[%d, %d]", r.MinCP, r.MaxCP)
				}
				fmt.Fprintf(w, "  %s\t%d\t%d\t%s\t%d\t%d\t%d\t%s\t%d\n",
					r.Table, r.Partition, r.Level, r.Format, r.Records,
					r.LogicalBytes, r.SizeBytes, window, r.Overrides)
			}
			w.Flush()
		}
	case "lines":
		cat := db.Catalog()
		for _, line := range cat.Lines() {
			fmt.Printf("line %d: snapshots %v\n", line, cat.Snapshots(line))
		}
	case "query":
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "block\tinode\toffset\tline\tlength\tfrom\tto\tversions\tlive")
		err := db.QueryRange(*block, *n, func(b uint64, owners []backlog.Owner) bool {
			for _, o := range owners {
				to := fmt.Sprintf("%d", o.To)
				if o.To == backlog.Infinity {
					to = "inf"
				}
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%s\t%v\t%v\n",
					b, o.Inode, o.Offset, o.Line, o.Length, o.From, to, o.Versions, o.Live)
			}
			return true
		})
		w.Flush()
		if err != nil {
			fmt.Fprintln(os.Stderr, "backlogctl:", err)
			os.Exit(1)
		}
	case "compact":
		before := db.SizeBytes()
		// -policy leveled runs a policy-planned maintenance pass (only the
		// stepped merges that are due), which writes no manifest: the Close
		// here commits its merges, and its error is the command's. The
		// default remains the classic merge-each-partition-to-one
		// compaction, which commits them itself.
		var err error
		if pmode == backlog.PolicyLeveled {
			err = db.Maintain()
		} else {
			err = db.Compact()
		}
		after := db.SizeBytes()
		if err == nil {
			err = db.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "backlogctl:", err)
			os.Exit(1)
		}
		fmt.Printf("compacted (%s): %d -> %d bytes\n", pmode, before, after)
	case "expire":
		before := db.SizeBytes()
		est, err := db.Expire()
		if err != nil {
			fmt.Fprintln(os.Stderr, "backlogctl:", err)
			os.Exit(1)
		}
		if est.Deferred {
			fmt.Println("expire deferred: relocations the log replayed at open are not yet checkpointed (the Combined deletion vector is dirty); the next checkpoint drops the runs")
			break
		}
		horizon := fmt.Sprintf("%d", est.Horizon)
		if est.Horizon == backlog.Infinity {
			horizon = "inf"
		}
		fmt.Printf("expired: %d runs (%d records, %d deletion-vector entries) below horizon %s, %d -> %d bytes\n",
			est.RunsDropped, est.RecordsDropped, est.DVEntriesDropped, horizon, before, db.SizeBytes())
	}
}
