package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog/internal/storage"
)

// IOStats is the purpose-tagged I/O accountant: one cache-line-padded
// block of atomic counters per storage.Source, fed by the storage
// attribution wrapper (storage.Attributed). The record path is a handful
// of uncontended atomic adds; latency histograms are recorded only after
// Register attaches a registry, so experiments without metrics pay no
// clock reads.
//
// IOStats implements storage.IORecorder.
type IOStats struct {
	srcs [storage.NumSources]ioSrcCounters

	// Per-source I/O latency histograms; nil until Register. The lat flag
	// is read by the wrapper once at wrap time via WantsLatency, so it
	// must be set (by Register) before the VFS is wrapped.
	readHist  [storage.NumSources]*Histogram
	writeHist [storage.NumSources]*Histogram
	syncHist  [storage.NumSources]*Histogram
	lat       bool
}

// ioSrcCounters is one source's counter block, padded to a whole cache
// line (7 x 8 bytes + 8 pad) so concurrent subsystems (WAL appends vs.
// query reads) never false-share across sources.
type ioSrcCounters struct {
	readBytes  atomic.Uint64
	readOps    atomic.Uint64
	writeBytes atomic.Uint64
	writeOps   atomic.Uint64
	syncs      atomic.Uint64
	creates    atomic.Uint64
	removes    atomic.Uint64
	_          [8]byte
}

// NewIOStats returns a zeroed accountant.
func NewIOStats() *IOStats { return &IOStats{} }

// RecordRead implements storage.IORecorder.
func (s *IOStats) RecordRead(src storage.Source, bytes int, dur time.Duration) {
	c := &s.srcs[src]
	c.readOps.Add(1)
	c.readBytes.Add(uint64(bytes))
	if s.lat {
		s.readHist[src].ObserveDuration(dur)
	}
}

// RecordWrite implements storage.IORecorder.
func (s *IOStats) RecordWrite(src storage.Source, bytes int, dur time.Duration) {
	c := &s.srcs[src]
	c.writeOps.Add(1)
	c.writeBytes.Add(uint64(bytes))
	if s.lat {
		s.writeHist[src].ObserveDuration(dur)
	}
}

// RecordWriteBytes implements storage.IORecorder.
func (s *IOStats) RecordWriteBytes(src storage.Source, bytes int) {
	s.srcs[src].writeBytes.Add(uint64(bytes))
}

// RecordSync implements storage.IORecorder.
func (s *IOStats) RecordSync(src storage.Source, dur time.Duration) {
	s.srcs[src].syncs.Add(1)
	if s.lat {
		s.syncHist[src].ObserveDuration(dur)
	}
}

// RecordCreate implements storage.IORecorder.
func (s *IOStats) RecordCreate(src storage.Source) { s.srcs[src].creates.Add(1) }

// RecordRemove implements storage.IORecorder.
func (s *IOStats) RecordRemove(src storage.Source) { s.srcs[src].removes.Add(1) }

// WantsLatency implements storage.IORecorder; true once a registry is
// attached.
func (s *IOStats) WantsLatency() bool { return s.lat }

// SourceBytes returns the cumulative read and write bytes of one source
// (the per-op slow-log deltas subtract two calls).
func (s *IOStats) SourceBytes(src storage.Source) (readBytes, writeBytes uint64) {
	c := &s.srcs[src]
	return c.readBytes.Load(), c.writeBytes.Load()
}

// Totals returns cumulative read and write bytes summed over all sources.
func (s *IOStats) Totals() (readBytes, writeBytes uint64) {
	for i := range s.srcs {
		c := &s.srcs[i]
		readBytes += c.readBytes.Load()
		writeBytes += c.writeBytes.Load()
	}
	return readBytes, writeBytes
}

// SourceIO is one source's counters in an IOStats snapshot.
type SourceIO struct {
	Source     string `json:"source"`
	ReadBytes  uint64 `json:"read_bytes"`
	ReadOps    uint64 `json:"read_ops"`
	WriteBytes uint64 `json:"write_bytes"`
	WriteOps   uint64 `json:"write_ops"`
	Syncs      uint64 `json:"syncs"`
	Creates    uint64 `json:"creates"`
	Removes    uint64 `json:"removes"`
}

// Snapshot returns every source's counters in storage.Source order
// (index i is storage.Source(i)).
func (s *IOStats) Snapshot() []SourceIO {
	out := make([]SourceIO, storage.NumSources)
	for i := range s.srcs {
		c := &s.srcs[i]
		out[i] = SourceIO{
			Source:     storage.Source(i).String(),
			ReadBytes:  c.readBytes.Load(),
			ReadOps:    c.readOps.Load(),
			WriteBytes: c.writeBytes.Load(),
			WriteOps:   c.writeOps.Load(),
			Syncs:      c.syncs.Load(),
			Creates:    c.creates.Load(),
			Removes:    c.removes.Load(),
		}
	}
	return out
}

// Register exports the accountant as labeled metric families
// (backlog_io_read_bytes_total{src="wal"} and friends) and enables the
// per-source I/O latency histograms. Must be called before the VFS is
// wrapped: the attribution wrapper snapshots WantsLatency at wrap time.
func (s *IOStats) Register(r *Registry) {
	if r == nil {
		return
	}
	lat := LatencyBuckets()
	for i := 0; i < storage.NumSources; i++ {
		src := storage.Source(i)
		c := &s.srcs[i]
		name := func(base string) string { return MetricName(base, "src", src.String()) }
		r.CounterFunc(name("backlog_io_read_bytes_total"), "Bytes read, by purpose", c.readBytes.Load)
		r.CounterFunc(name("backlog_io_read_ops_total"), "ReadAt calls, by purpose", c.readOps.Load)
		r.CounterFunc(name("backlog_io_write_bytes_total"), "Bytes written, by purpose", c.writeBytes.Load)
		r.CounterFunc(name("backlog_io_write_ops_total"), "WriteAt calls, by purpose", c.writeOps.Load)
		r.CounterFunc(name("backlog_io_syncs_total"), "File syncs, by purpose", c.syncs.Load)
		r.CounterFunc(name("backlog_io_files_created_total"), "Files created, by purpose", c.creates.Load)
		r.CounterFunc(name("backlog_io_files_removed_total"), "Files removed, by purpose", c.removes.Load)
		s.readHist[i] = r.Histogram(name("backlog_io_read_ns"), "ReadAt latency, by purpose", "ns", lat)
		s.writeHist[i] = r.Histogram(name("backlog_io_write_ns"), "WriteAt latency, by purpose", "ns", lat)
		s.syncHist[i] = r.Histogram(name("backlog_io_sync_ns"), "File sync latency, by purpose", "ns", lat)
	}
	s.lat = true
}

// WriteAmp is the rolling write-amplification monitor: a bounded ring of
// (time, user-bytes-in, device-bytes-out) samples appended lazily on every
// Observe call (IOReport, metric scrape — there is no background
// goroutine), from which it derives the windowed amplification. Window
// resolution is therefore bounded by the observation cadence: with one
// scrape per window the "window" degrades to the inter-scrape interval,
// which is the usual pull-model contract.
type WriteAmp struct {
	mu      sync.Mutex
	window  time.Duration
	samples []waSample
}

type waSample struct {
	t         time.Time
	user, dev uint64
}

// DefaultWriteAmpWindow is the rolling window when none is configured.
const DefaultWriteAmpWindow = 60 * time.Second

// NewWriteAmp returns a monitor with the given rolling window
// (DefaultWriteAmpWindow if w <= 0).
func NewWriteAmp(w time.Duration) *WriteAmp {
	if w <= 0 {
		w = DefaultWriteAmpWindow
	}
	return &WriteAmp{window: w}
}

// Window returns the configured rolling window.
func (w *WriteAmp) Window() time.Duration { return w.window }

// Observe appends a cumulative sample and returns the windowed deltas:
// user and device bytes accumulated since the oldest retained sample and
// the span that covers. The first observation returns zero deltas.
func (w *WriteAmp) Observe(now time.Time, user, dev uint64) (winUser, winDev uint64, span time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Evict samples older than the window, always keeping one at-or-beyond
	// the boundary as the baseline so the reported span covers the window
	// rather than trailing just inside it.
	cut := now.Add(-w.window)
	i := 0
	for i < len(w.samples)-1 && w.samples[i+1].t.Before(cut) {
		i++
	}
	w.samples = append(w.samples[i:], waSample{t: now, user: user, dev: dev})
	base := w.samples[0]
	if len(w.samples) == 1 || !now.After(base.t) {
		return 0, 0, 0
	}
	return user - base.user, dev - base.dev, now.Sub(base.t)
}
