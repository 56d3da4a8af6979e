package core

import (
	"time"

	"github.com/backlogfs/backlog/internal/obs"
)

// IOReport is a structured snapshot of the engine's purpose-tagged I/O
// accounting: per-source device bytes/ops, cumulative totals, and the
// online write-amplification monitor's cumulative and windowed readings.
type IOReport struct {
	// Sources lists every source's counters (storage.Source order:
	// unknown, wal, checkpoint, compaction, query, expiry, recovery,
	// manifest). Per-source bytes sum to the totals below exactly — the
	// wrapper records the same n the device-level metering counts.
	Sources []obs.SourceIO `json:"sources,omitempty"`
	// TotalReadBytes and TotalWriteBytes sum the per-source byte counters.
	TotalReadBytes  uint64 `json:"total_read_bytes"`
	TotalWriteBytes uint64 `json:"total_write_bytes"`

	// UserBytes is the logical payload handed to the engine since Open:
	// one From record per AddRef plus one To record per RemoveRef — the
	// denominator of write amplification.
	UserBytes uint64 `json:"user_bytes"`
	// WriteAmp is cumulative device-bytes-written / UserBytes since Open
	// (0 while UserBytes is 0). It includes recovery and startup writes,
	// so long-running processes should prefer the windowed reading.
	WriteAmp float64 `json:"write_amp"`

	// WindowSeconds is the actual span the windowed figures cover — at
	// most obs.DefaultWriteAmpWindow, less while the monitor warms up
	// (the monitor samples lazily at IOReport/scrape time, so resolution
	// is bounded by that cadence).
	WindowSeconds float64 `json:"window_seconds"`
	// WindowUserBytes and WindowWriteBytes are the user and device bytes
	// accumulated over the window; WindowWriteAmp is their ratio (0 while
	// WindowUserBytes is 0).
	WindowUserBytes  uint64  `json:"window_user_bytes"`
	WindowWriteBytes uint64  `json:"window_write_bytes"`
	WindowWriteAmp   float64 `json:"window_write_amp"`
}

// userBytes returns the logical payload the engine has accepted since
// Open, in record-encoded bytes. Computed from the existing hot-path
// counters, so the write-amplification monitor costs the update path
// nothing.
func (e *Engine) userBytes() uint64 {
	return e.stats.refsAdded.Load()*uint64(FromRecSize) +
		e.stats.refsRemoved.Load()*uint64(ToRecSize)
}

// IOReport samples the I/O accountant and the write-amplification
// monitor. It takes no locks (atomic counter reads only) and is safe to
// call concurrently with all engine operations.
func (e *Engine) IOReport() IOReport {
	rep := IOReport{
		Sources:   e.ios.Snapshot(),
		UserBytes: e.userBytes(),
	}
	rep.TotalReadBytes, rep.TotalWriteBytes = e.ios.Totals()
	if rep.UserBytes > 0 {
		rep.WriteAmp = float64(rep.TotalWriteBytes) / float64(rep.UserBytes)
	}
	winUser, winDev, span := e.wamp.Observe(time.Now(), rep.UserBytes, rep.TotalWriteBytes)
	rep.WindowSeconds = span.Seconds()
	rep.WindowUserBytes, rep.WindowWriteBytes = winUser, winDev
	if winUser > 0 {
		rep.WindowWriteAmp = float64(winDev) / float64(winUser)
	}
	return rep
}

// IOStats returns the engine's I/O accountant; test helpers and the debug
// endpoint read it directly.
func (e *Engine) IOStats() *obs.IOStats { return e.ios }
