package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"github.com/backlogfs/backlog"
)

// environment is recorded in every result file, so that two files can be
// told apart before their numbers are compared.
type environment struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	StoreDir   string  `json:"store_dir"`
	StoreFS    string  `json:"store_dir_filesystem"`
}

// commit is the repository revision the binary was built from; run.sh
// sets it at link time when the checkout is a git repository.
var commit = "unknown"

func captureEnv(opt options) environment {
	env := environment{
		Commit: commit, Seed: opt.seed, Scale: opt.scale, Seconds: opt.seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		StoreDir: opt.workdir, StoreFS: filesystemOf(opt.workdir),
	}
	return env
}

// filesystemOf names the file system a directory lives on, from the
// statfs magic number.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// configDoc is the effective Config of a workload plus the sizes of its
// round, as recorded in the result file.
func configDoc(s spec) any {
	cfg := s.effectiveConfig("<store>", nil)
	return map[string]any{
		"write_shards":       cfg.WriteShards,
		"durability":         cfg.Durability.String(),
		"compaction_policy":  cfg.CompactionPolicy.String(),
		"retain_live":        cfg.Retention == backlog.RetainLive,
		"cache_bytes":        cfg.CacheBytes, // 0 is the 32 MiB default
		"blocks":             s.gen.blocks,
		"popularity_theta":   s.gen.theta,
		"remove_share":       s.gen.removeShare,
		"churn_share":        s.gen.churnShare,
		"audited_blocks":     s.gen.audited,
		"ops_per_cp":         s.opsPerCP,
		"preload_cps":        s.preloadCPs,
		"preload_ops_per_cp": s.preloadOps,     // 0 means ops_per_cp
		"preload_unsynced":   s.preload != nil, // set-up ingests through the Buffered log
		"measured_cps":       s.cps,
		"maintain_every":     s.maintainEvery,
		"unmerged_cps":       s.unmergedCPs,
		"log_tail_cps":       s.logTailCPs,
		"snapshot_every":     s.snapshotEvery,
		"snapshot_window":    s.snapshotWindow,
		"writers":            s.writers,
		"concurrent_reader":  s.reader,
		"queries":            s.queries,
		"query_theta":        s.queryTheta,
		"scans":              s.scans,
		"scan_len":           s.scanLen,
	}
}

// resetPeakRSS starts a new peak-memory measurement: it returns the heap
// the previous workload left behind to the operating system and resets the
// kernel's high-water mark, so that with -all each workload reports its own
// peak. Best effort; where the reset is not permitted the peak is the
// process's so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM). The engine runs
// in-process, so this is the store plus the benchmark's own buffers.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
