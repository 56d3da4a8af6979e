// Command bench is the repository's benchmark: four seeded workloads
// driven through the public backlog API on a real directory, checked
// against a generator-side oracle, reporting the end-to-end metrics a file
// system embedding the store would feel and, on a traced run, the
// per-layer metrics underneath them. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runResult is one run of one workload: the contract's four keys plus
// what a reader of a result file needs to interpret them.
type runResult struct {
	Workload  string                `json:"workload"`
	Trace     bool                  `json:"trace"`
	Seed      uint64                `json:"seed"`
	Rounds    int                   `json:"rounds"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metric     `json:"metrics"`
	Samples   map[string]sampleNote `json:"samples,omitempty"`
	Config    any                   `json:"config"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

type options struct {
	seed     uint64
	seconds  float64
	scale    float64
	rounds   int
	workdir  string
	traceOut string
}

// runWorkload makes rounds of one workload for opt.seconds of wall time
// (at least three rounds, or exactly opt.rounds when set) and returns the
// end-to-end block, or the per-layer block when traced. The budget is wall
// time, set-up included, so a run takes opt.seconds plus at most one round
// on any machine.
func runWorkload(s spec, traced bool, opt options) (runResult, error) {
	s = s.scaled(opt.scale)
	out := runResult{Workload: s.name, Trace: traced, Seed: opt.seed, Config: configDoc(s)}
	var (
		plain, withRec []*roundResult
		rec            *recorder
		layers         map[string]metric
	)
	start := time.Now()
	resetPeakRSS()
	if traced {
		rec = newRecorder(s.writers + 1)
	}
	minRounds := 3
	if opt.rounds > 0 {
		minRounds = opt.rounds
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	for i := 0; i < minRounds || (opt.rounds == 0 && time.Since(start) < budget); i++ {
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead compares rounds made under the same conditions.
		useRec := rec
		if traced && i%2 == 0 {
			useRec = nil
		}
		var keep func(string, *roundResult) error
		if useRec != nil {
			// The layer probes read the finished store, which the round
			// removes when it returns; the last traced round's numbers win.
			keep = func(dir string, res *roundResult) (err error) {
				layers, err = layerMetrics(s, dir, res, rec)
				return err
			}
		}
		res, err := runRound(s, opt.seed, opt.workdir, useRec, keep)
		if err != nil {
			return out, err
		}
		out.Attempted += res.attempted
		out.Failed += res.failed
		if useRec != nil {
			withRec = append(withRec, res)
		} else {
			plain = append(plain, res)
		}
	}
	out.Rounds = len(plain) + len(withRec)
	if s.name == "durable" {
		out.Attempted++
		if err := crashDurabilityCheck(opt.seed, s); err != nil {
			out.Failed++
			fmt.Fprintf(os.Stderr, "bench: durable: crash check: %v\n", err)
		}
	}
	if traced {
		if layers == nil {
			return out, errors.New("traced run made no traced round")
		}
		wall := func(r *roundResult) float64 { return r.measuredWall(s).Seconds() }
		base := bestRound(plain, "lower", wall)
		layers["obs.trace_overhead_share"] = metric{ratio(bestRound(withRec, "lower", wall)-base, base), "ratio"}
		for name, m := range bestRounds(wallClock, plain) {
			layers[name] = m
		}
		out.Metrics, out.Samples = layers, sampleNotes(plain[0])
		if opt.traceOut != "" {
			if err := rec.write(opt.traceOut); err != nil {
				return out, err
			}
		}
	} else {
		out.Metrics = bestRounds(endToEnd, plain)
	}
	out.Correct = out.Failed == 0
	return out, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		opt      options
		workload = flag.String("workload", "", "workload to run: ingest, durable, query or mixed")
		all      = flag.Bool("all", false, "run every workload, untraced then traced")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "with -all: runs per workload, so that -compare can see the spread")
		outPath  = flag.String("out", "", "write the result file (environment + every run) here")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same op stream")
	flag.Float64Var(&opt.seconds, "seconds", 25, "keep making rounds for this much wall time")
	flag.Float64Var(&opt.scale, "scale", 1, "shrink every workload by this factor (tests use 0.01)")
	flag.IntVar(&opt.rounds, "rounds", 0, "make exactly this many rounds instead of filling -seconds")
	flag.StringVar(&opt.workdir, "workdir", "", "directory for the stores (default: a temporary directory)")
	flag.StringVar(&opt.traceOut, "trace-out", "", "with -trace 1: write the last traced round's spans here, one JSON object per line")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	// Two cores whatever the host has: client counts never exceed it, and
	// the engine's defaults that follow GOMAXPROCS stay put.
	runtime.GOMAXPROCS(2)
	if opt.workdir == "" {
		dir, err := os.MkdirTemp("", "backlog-bench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		defer os.RemoveAll(dir)
		opt.workdir = dir
	} else if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	var todo []spec
	switch {
	case *all:
		todo = specs
	default:
		s, ok := findSpec(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		todo = []spec{s}
	}
	file := resultFile{Env: captureEnv(opt)}
	code := 0
	for range max(*repeat, 1) {
		for _, s := range todo {
			variants := []bool{*trace == 1}
			if *all {
				variants = []bool{false, true}
			}
			for _, traced := range variants {
				res, err := runWorkload(s, traced, opt)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
					return 2
				}
				if !res.Correct {
					code = 1
				}
				file.Runs = append(file.Runs, res)
			}
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	// One line per run; the last line of a single run is the contract's
	// object with exactly correct, attempted, failed and metrics.
	for _, r := range file.Runs {
		if *all {
			fmt.Printf("%s trace=%v ", r.Workload, r.Trace)
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println(string(line))
	}
	return code
}
