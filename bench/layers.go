package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/backlogfs/backlog"
	"github.com/backlogfs/backlog/internal/bloom"
	"github.com/backlogfs/backlog/internal/btree"
	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/lsm"
	"github.com/backlogfs/backlog/internal/memtree"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

// perLayer lists the metrics of single layers, named <module>.<metric>
// after the repository's packages. They carry no bound; README.md says
// which end-to-end metric each should move on which workload.
var perLayer = []metricDef{
	{Name: "backlog.checkpoint_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "backlog.maintain_self_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "core.update_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.maintain_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "core.checkpoint_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "core.checkpoint_freeze_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.checkpoint_flush_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_install_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.compactions", Unit: "count", Better: "lower"},
	{Name: "core.compact_conflicts", Unit: "count", Better: "lower"},
	{Name: "core.records_purged", Unit: "count", Better: "higher"},
	{Name: "core.runs_expired", Unit: "count", Better: "higher"},
	{Name: "core.query_self_us", Unit: "us", Better: "lower"},

	{Name: "memtree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "memtree.scan_ns", Unit: "ns", Better: "lower"},

	{Name: "wal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.append_us_p99", Unit: "us", Better: "lower"},
	{Name: "wal.flush_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.records_per_batch", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "wal.syncs", Unit: "count", Better: "lower"},
	{Name: "wal.sync_ack_over_bare_fsync", Unit: "ratio", Better: "lower"},
	{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher"},

	{Name: "btree.build_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "btree.iter_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "btree.seek_us", Unit: "us", Better: "lower"},
	{Name: "btree.page_decode_us", Unit: "us", Better: "lower"},
	{Name: "btree.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "btree.cache_bytes", Unit: "B", Better: "lower"},
	{Name: "btree.bytes_per_record", Unit: "B", Better: "lower"},

	{Name: "bloom.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "bloom.fp_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bloom.bytes_per_record", Unit: "B", Better: "lower"},

	{Name: "lsm.runs_at_end", Unit: "count", Better: "lower"},
	{Name: "lsm.runs_considered_per_query", Unit: "count", Better: "lower"},
	{Name: "lsm.runs_passed_per_query", Unit: "count", Better: "lower"},
	{Name: "lsm.collect_block_us", Unit: "us", Better: "lower"},
	{Name: "lsm.merge_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "lsm.manifest_commit_us_p50", Unit: "us", Better: "lower"},

	{Name: "storage.write_bytes.wal", Unit: "B", Better: "lower"},
	{Name: "storage.write_bytes.checkpoint", Unit: "B", Better: "lower"},
	{Name: "storage.write_bytes.compaction", Unit: "B", Better: "lower"},
	{Name: "storage.write_bytes.manifest", Unit: "B", Better: "lower"},
	{Name: "storage.read_bytes.query", Unit: "B", Better: "lower"},
	{Name: "storage.read_bytes.compaction", Unit: "B", Better: "lower"},
	{Name: "storage.read_bytes.recovery", Unit: "B", Better: "lower"},
	{Name: "storage.write_ops", Unit: "count", Better: "lower"},
	{Name: "storage.read_ops", Unit: "count", Better: "lower"},
	{Name: "storage.syncs", Unit: "count", Better: "lower"},
	{Name: "storage.busy_s.wal", Unit: "s", Better: "lower"},
	{Name: "storage.busy_s.checkpoint", Unit: "s", Better: "lower"},
	{Name: "storage.busy_s.compaction", Unit: "s", Better: "lower"},
	{Name: "storage.busy_s.manifest", Unit: "s", Better: "lower"},
	{Name: "storage.busy_s.query", Unit: "s", Better: "lower"},
	{Name: "storage.busy_s.recovery", Unit: "s", Better: "lower"},
	{Name: "storage.fsync_us_p50", Unit: "us", Better: "lower"},

	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

func init() { perLayer = append(wallClock, perLayer...) }

func hist(m backlog.MetricsSnapshot, name string) backlog.HistogramSnapshot {
	h, _ := m.Histogram(name)
	return h
}

func counter(m backlog.MetricsSnapshot, name string) float64 {
	c, _ := m.Counter(name)
	return float64(c)
}

// ioBusy is the wall time the engine spent inside reads and writes tagged
// with src, from the per-source I/O latency histograms.
func ioBusy(m backlog.MetricsSnapshot, src string) float64 {
	return float64(hist(m, obs.MetricName("backlog_io_read_ns", "src", src)).Sum+
		hist(m, obs.MetricName("backlog_io_write_ns", "src", src)).Sum) / 1e9
}

// layerMetrics fills the per-layer block from one traced round: the
// engine's public counters and histograms, the recorder's spans, and
// probes that time each layer's exported functions on data taken from the
// round's finished store in dir.
func layerMetrics(s spec, dir string, res *roundResult, rec *recorder) (map[string]metric, error) {
	v := map[string]float64{}
	m, st := res.metrics, res.stats
	self := rec.controlSelfTimes()

	// The public wrapper's own share of a call: the benchmark's span minus
	// the engine events inside it (catalog save; for Maintain also planning
	// and the pacing sleeps between merges).
	v["backlog.checkpoint_self_ms_p50"] = median(self[spCheckpoint]) / 1e6
	v["backlog.maintain_self_ms_p50"] = median(self[spMaintain]) / 1e6

	v["core.update_ns_per_op"] = ratio(float64(res.updateCall), float64(res.updates))
	v["core.pruned_share"] = ratio(float64(st.PrunedAdds+st.PrunedRemoves), float64(st.RefsAdded+st.RefsRemoved))
	v["core.maintain_busy_share"] = ratio(float64(res.maintainWall), float64(res.updateWall))
	v["core.checkpoint_busy_share"] = ratio(float64(res.checkpointWall), float64(res.updateWall))
	v["core.checkpoint_freeze_us_p50"] = hist(m, "backlog_checkpoint_freeze_ns").P50 / 1e3
	v["core.checkpoint_flush_ms_p50"] = hist(m, "backlog_checkpoint_flush_ns").P50 / 1e6
	v["core.checkpoint_install_us_p50"] = hist(m, "backlog_checkpoint_install_ns").P50 / 1e3
	v["core.compactions"] = float64(st.Compactions)
	v["core.compact_conflicts"] = float64(res.maint.Conflicts)
	v["core.records_purged"] = float64(st.RecordsPurged)
	v["core.runs_expired"] = float64(st.RunsExpired)
	// Query self time: the engine's query events minus the device reads
	// tagged query made on their behalf, per query. Audit queries are in
	// both terms.
	q := hist(m, "backlog_query_ns")
	qr := hist(m, "backlog_queryrange_ns")
	qio := hist(m, obs.MetricName("backlog_io_read_ns", "src", "query"))
	v["core.query_self_us"] = ratio(float64(q.Sum+qr.Sum)-float64(qio.Sum), float64(st.Queries)) / 1e3

	wa, wf, wb := hist(m, "backlog_wal_append_ns"), hist(m, "backlog_wal_flush_ns"), hist(m, "backlog_wal_batch_records")
	walIO := sourceIO(res.io, "wal")
	v["wal.append_us_p50"] = wa.P50 / 1e3
	v["wal.append_us_p99"] = wa.P99 / 1e3
	v["wal.flush_us_p50"] = wf.P50 / 1e3
	v["wal.records_per_batch"] = wb.Mean()
	v["wal.bytes_per_record"] = ratio(float64(walIO.WriteBytes), float64(st.WALAppends))
	v["wal.syncs"] = float64(walIO.Syncs)
	v["wal.replay_records_per_s"] = ratio(float64(res.reopenStats.WALReplayed), res.reopen.Seconds())

	v["btree.cache_hit_ratio"] = ratio(counter(m, "backlog_decoded_cache_hits_total"),
		counter(m, "backlog_decoded_cache_hits_total")+counter(m, "backlog_decoded_cache_misses_total"))
	cb, _ := m.Gauge("backlog_decoded_cache_bytes")
	v["btree.cache_bytes"] = cb
	var runBytes, runRecords float64
	for _, r := range res.runs {
		runBytes += float64(r.SizeBytes)
		runRecords += float64(r.Records)
	}
	v["btree.bytes_per_record"] = ratio(runBytes, runRecords)
	v["lsm.runs_at_end"] = float64(len(res.runs))
	v["lsm.manifest_commit_us_p50"] = hist(m, obs.MetricName("backlog_io_write_ns", "src", "manifest")).P50 / 1e3

	for _, src := range []string{"wal", "checkpoint", "compaction", "manifest"} {
		v["storage.write_bytes."+src] = float64(sourceIO(res.io, src).WriteBytes)
	}
	v["storage.read_bytes.query"] = float64(sourceIO(res.io, "query").ReadBytes)
	v["storage.read_bytes.compaction"] = float64(sourceIO(res.io, "compaction").ReadBytes)
	// Recovery I/O is the reopen's: the first open found an empty directory.
	v["storage.read_bytes.recovery"] = float64(sourceIO(res.reopenIO, "recovery").ReadBytes)
	for _, src := range res.io.Sources {
		v["storage.write_ops"] += float64(src.WriteOps)
		v["storage.read_ops"] += float64(src.ReadOps)
		v["storage.syncs"] += float64(src.Syncs)
	}
	for _, src := range []string{"wal", "checkpoint", "compaction", "manifest", "query"} {
		v["storage.busy_s."+src] = ioBusy(m, src)
	}
	v["storage.busy_s.recovery"] = ioBusy(res.reopenMetrics, "recovery")

	if err := probeMemtree(v, res.lastCP); err != nil {
		return nil, err
	}
	if err := probeRun(v, s, dir, res.runs); err != nil {
		return nil, err
	}
	if err := probeLSM(v, s, dir); err != nil {
		return nil, err
	}
	if err := probeFsync(v, dir); err != nil {
		return nil, err
	}
	v["wal.sync_ack_over_bare_fsync"] = ratio(us(pct(res.lat.ack, 0.5)), v["storage.fsync_us_p50"])

	// A metric no probe or counter reported (nothing logged, no run to
	// probe) is 0; the caller overwrites the untraced and overhead entries.
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metric{v[d.Name], d.Unit}
	}
	return out, nil
}

func lessFrom(a, b core.FromRec) bool {
	for _, p := range [...][2]uint64{{a.Block, b.Block}, {a.Inode, b.Inode}, {a.Offset, b.Offset},
		{a.Line, b.Line}, {a.Length, b.Length}} {
		if p[0] != p[1] {
			return p[0] < p[1]
		}
	}
	return a.From < b.From
}

// probeMemtree times the write store's tree alone: one CP's added
// references into a fresh tree, then one Scan per inserted block.
func probeMemtree(v map[string]float64, cp []op) error {
	var recs []core.FromRec
	for _, o := range cp {
		if !o.remove {
			recs = append(recs, core.FromRec{Ref: o.ref, From: 1})
		}
	}
	if len(recs) == 0 {
		return nil
	}
	const reps = 5
	var ins, scan []float64
	for range reps {
		t := memtree.New(lessFrom)
		t0 := time.Now()
		for _, r := range recs {
			t.Insert(r)
		}
		ins = append(ins, float64(time.Since(t0))/float64(len(recs)))
		found := 0
		t0 = time.Now()
		for _, r := range recs {
			b := r.Block
			t.Scan(core.FromRec{Ref: backlog.Ref{Block: b}}, func(x core.FromRec) bool {
				if x.Block != b {
					return false
				}
				found++
				return true
			})
		}
		scan = append(scan, float64(time.Since(t0))/float64(len(recs)))
		if found < len(recs) {
			return fmt.Errorf("memtree probe: scans found %d of %d records", found, len(recs))
		}
	}
	v["memtree.insert_ns"] = median(ins)
	v["memtree.scan_ns"] = median(scan)
	return nil
}

// probeRun times the run format alone on the store's largest run: a full
// iteration, a rebuild of its records into a discarding sink, uncached
// seeks with page decode timed, and its Bloom filter probed with blocks
// the run is known not to hold.
func probeRun(v map[string]float64, s spec, dir string, runs []backlog.RunInfo) error {
	if len(runs) == 0 {
		return nil
	}
	big := runs[0]
	for _, r := range runs {
		if r.Records > big.Records {
			big = r
		}
	}
	fs, err := storage.NewDirFS(dir)
	if err != nil {
		return err
	}
	f, err := fs.Open(big.Name)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := btree.Open(f, nil)
	if err != nil {
		return err
	}

	const maxRecords = 200000
	size := rd.RecordSize()
	flat := make([]byte, 0, min(int(rd.RecordCount()), maxRecords)*size)
	t0 := time.Now()
	it, err := rd.First()
	if err != nil {
		return err
	}
	for len(flat) < cap(flat) {
		rec, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		flat = append(flat, rec...)
	}
	n := len(flat) / size
	v["btree.iter_records_per_s"] = ratio(float64(n), time.Since(t0).Seconds())

	w, err := btree.NewWriterFormat(storage.NewMemFS().CreateSink("probe.run"), size, rd.Format())
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if err := w.Append(flat[i*size : (i+1)*size]); err != nil {
			return err
		}
	}
	if err := w.Finish(nil); err != nil {
		return err
	}
	v["btree.build_records_per_s"] = ratio(float64(n), time.Since(t0).Seconds())

	var decodes int
	var decodeTime time.Duration
	rd.SetDecodeObserver(func(d time.Duration) { decodes++; decodeTime += d })
	seeks := min(n, 4000)
	t0 = time.Now()
	for i := 0; i < seeks; i++ {
		j := i * (n / seeks)
		it, err := rd.SeekGE(flat[j*size : (j+1)*size])
		if err != nil {
			return err
		}
		if _, ok, err := it.Next(); err != nil || !ok {
			return fmt.Errorf("btree probe: seek to a stored record found nothing (%v)", err)
		}
	}
	v["btree.seek_us"] = ratio(us(time.Since(t0)), float64(seeks))
	v["btree.page_decode_us"] = ratio(us(decodeTime), float64(decodes))

	// Bloom filters, over every run for the size and on the big run for
	// the probe: blocks the iteration did not see are absent from it.
	var bloomBytes, records float64
	for _, r := range runs {
		rf, err := fs.Open(r.Name)
		if err != nil {
			return err
		}
		rr, err := btree.Open(rf, nil)
		if err == nil {
			var b []byte
			b, err = rr.BloomBytes()
			bloomBytes += float64(len(b))
			records += float64(r.Records)
		}
		rf.Close()
		if err != nil {
			return err
		}
	}
	v["bloom.bytes_per_record"] = ratio(bloomBytes, records)
	data, err := rd.BloomBytes()
	if err != nil || data == nil || uint64(n) < rd.RecordCount() {
		return err // no filter, or the run was not read whole: absence is unknown
	}
	filter, err := bloom.Unmarshal(data)
	if err != nil {
		return err
	}
	present := make(map[uint64]struct{}, n)
	for i := 0; i < n; i++ {
		present[binary.BigEndian.Uint64(flat[i*size:])] = struct{}{}
	}
	var absent []uint64
	for b := uint64(0); b < s.gen.blocks && len(absent) < 50000; b++ {
		if _, ok := present[b]; !ok {
			absent = append(absent, b)
		}
	}
	passed := 0
	t0 = time.Now()
	for _, b := range absent {
		if filter.MayContain(b) {
			passed++
		}
	}
	v["bloom.probe_ns"] = ratio(float64(time.Since(t0)), float64(len(absent)))
	v["bloom.fp_ratio"] = ratio(float64(passed), float64(len(absent)))
	return nil
}

// probeLSM opens the finished store's run set directly and measures run
// selection and merging on a pinned view: how many runs a block's lookup
// considers and how many pass the range and Bloom checks, the time to
// collect one block's records from every table, and the rate of a full
// merged iteration.
func probeLSM(v map[string]float64, s spec, dir string) error {
	fs, err := storage.NewDirFS(dir)
	if err != nil {
		return err
	}
	tables := []lsm.TableSpec{
		{Name: core.TableFrom, RecordSize: core.FromRecSize},
		{Name: core.TableTo, RecordSize: core.ToRecSize},
		{Name: core.TableCombined, RecordSize: core.CombinedSize},
	}
	db, err := lsm.Open(fs, lsm.Options{Tables: tables, Partitions: 1})
	if err != nil {
		return err
	}
	view := db.AcquireView()
	defer view.Release()

	const blocks = 2000
	rnd := rng(blocks)
	var considered, passed, records int
	var collect time.Duration
	for range blocks {
		b := rnd.next() & (s.gen.blocks - 1)
		for _, t := range tables {
			for _, r := range view.Runs(t.Name, 0) {
				considered++
				if r.MayContainBlock(b) {
					passed++
				}
			}
			t0 := time.Now()
			err := view.CollectBlock(t.Name, b, func([]byte) bool { records++; return true })
			collect += time.Since(t0)
			if err != nil {
				return err
			}
		}
	}
	v["lsm.runs_considered_per_query"] = float64(considered) / blocks
	v["lsm.runs_passed_per_query"] = float64(passed) / blocks
	v["lsm.collect_block_us"] = us(collect) / blocks

	merged := 0
	t0 := time.Now()
	for _, t := range tables {
		it, err := view.MergedIter(t.Name, 0)
		if err != nil {
			return err
		}
		for {
			_, ok, err := it.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			merged++
		}
	}
	v["lsm.merge_records_per_s"] = ratio(float64(merged), time.Since(t0).Seconds())
	return nil
}

// probeFsync is the bare device flush the log's group commit is measured
// against: a 4 KiB write and an fsync in the store's own directory.
func probeFsync(v map[string]float64, dir string) error {
	fs, err := storage.NewDirFS(dir)
	if err != nil {
		return err
	}
	f, err := fs.Create("probe.fsync")
	if err != nil {
		return err
	}
	defer f.Close()
	page := make([]byte, 4096)
	var d []float64
	for i := range 64 {
		t0 := time.Now()
		if _, err := f.WriteAt(page, int64(i)*4096); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		d = append(d, us(time.Since(t0)))
	}
	v["storage.fsync_us_p50"] = median(d)
	return nil
}
