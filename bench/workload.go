package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog"
)

// writeShards pins the write-store shard count so the run set — and with
// it every count-class metric — does not depend on the host's core count.
const writeShards = 2

// spec is one workload: the shape of its op stream, the store
// configuration, and the size of each phase of a round. Every workload
// runs the same round (set-up, updates, queries, scans, audit, reopen,
// audit) so that every end-to-end metric is defined on every workload;
// the sizes decide which layers do the work.
type spec struct {
	name, why string
	gen       genParams
	config    func(cfg *backlog.Config) // edits the defaults

	opsPerCP   int
	preloadCPs int // consistency points ingested during set-up
	preloadOps int // ops per preloaded CP; 0 means opsPerCP
	// preload, when set, edits the configuration for the preload; the
	// store is then closed and reopened as configured for the measured
	// phases. The durable workload preloads through the unsynced log: at
	// one fsync per update, preloading would otherwise dwarf the measurement.
	preload        func(cfg *backlog.Config)
	cps            int // measured consistency points
	maintainEvery  int // Maintain after every n-th CP, counted from the first preloaded one
	unmergedCPs    int // the last n CPs are not followed by Maintain, leaving level-0 runs
	logTailCPs     int // the last n CPs are not checkpointed: the reopen replays them from the log
	snapshotEvery  int // CreateSnapshot before every n-th Checkpoint
	snapshotWindow int // snapshots kept; 0 keeps all
	writers        int // closed-loop clients issuing updates, split by block
	ackEvery       int // time one update in this many (1 = every update)

	reader     bool    // a closed-loop reader queries recently written blocks during the update phase
	queries    int     // Query calls of the query phase (after the updates)
	queryTheta float64 // skew of queried blocks; 0 is uniform over the block space
	scans      int     // QueryRange extents
	scanLen    int     // blocks per extent
}

// stream is the op stream every workload shares; its length is the
// workload's (see genParams).
var stream = genParams{blocks: 1 << 18, theta: 0.5, removeShare: 0.4, churnShare: 0.1, audited: 4096}

var specs = []spec{
	{
		name: "ingest",
		why:  "write path with no log: memtree insert, run build (btree+delta codec+bloom) and whole-partition merges do the work; wal and the read path are idle",
		gen:  stream,
		config: func(cfg *backlog.Config) {
			cfg.Durability = backlog.DurabilityCheckpointOnly
			cfg.CompactionPolicy = backlog.PolicyFull
		},
		opsPerCP: 32000, preloadCPs: 2, cps: 16, maintainEvery: 8, snapshotEvery: 4,
		writers: 1, ackEvery: 16,
		queries: 10000, scans: 8, scanLen: 2048,
	},
	{
		name: "durable",
		why:  "2 clients in DurabilitySync: wal append, group commit, fsync and DirFS dominate, memtree and btree are noise; the only workload whose reopen replays a log tail",
		gen:  stream,
		config: func(cfg *backlog.Config) {
			cfg.Durability = backlog.DurabilitySync
		},
		preload:  func(cfg *backlog.Config) { cfg.Durability = backlog.DurabilityBuffered },
		opsPerCP: 500, preloadCPs: 3, preloadOps: 32000, cps: 8, maintainEvery: 3, logTailCPs: 3, snapshotEvery: 2,
		writers: 2, ackEvery: 1,
		queries: 5000, scans: 8, scanLen: 2048,
	},
	{
		name: "query",
		why:  "read-only measured phase over a store far larger than its 2 MiB page cache: bloom probe, run selection, btree seek, page read+CRC+decode and the From-To join do the work",
		gen:  stream,
		config: func(cfg *backlog.Config) {
			cfg.CacheBytes = 2 << 20
		},
		opsPerCP: 32000, preloadCPs: 18, cps: 6, maintainEvery: 10, unmergedCPs: 4, snapshotEvery: 4,
		writers: 1, ackEvery: 16,
		queries: 30000, scans: 16, scanLen: 4096,
	},
	{
		name: "mixed",
		why:  "1 writer + 1 reader, Buffered log, leveled merges and expiry after every checkpoint: memtree scanned while inserted into, cache hit while compaction churns runs, locks contended",
		gen:  stream,
		config: func(cfg *backlog.Config) {
			cfg.Durability = backlog.DurabilityBuffered
			cfg.CompactionPolicy = backlog.PolicyLeveled
			cfg.Retention = backlog.RetainLive
		},
		opsPerCP: 32000, preloadCPs: 2, cps: 8, maintainEvery: 1, logTailCPs: 1, snapshotEvery: 1, snapshotWindow: 3,
		writers: 1, ackEvery: 16,
		reader: true, queryTheta: 0.99, scans: 8, scanLen: 2048,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload for tests: ops per CP, query counts and the
// block space scale, the number of CPs and every cadence stay, so each
// phase and each maintenance path still runs.
func (s spec) scaled(f float64) spec {
	if f == 1 {
		return s
	}
	scale := func(n int, floor int) int { return max(int(float64(n)*f), floor) }
	s.opsPerCP = scale(s.opsPerCP, 64)
	if s.preloadOps > 0 {
		s.preloadOps = scale(s.preloadOps, 64)
	}
	s.queries = scale(s.queries, 64)
	s.scanLen = scale(s.scanLen, 16)
	blocks := uint64(1 << 10)
	for float64(blocks) < float64(s.gen.blocks)*f {
		blocks <<= 1
	}
	s.gen.blocks = blocks
	s.gen.audited = min(s.gen.audited, int(blocks/4))
	return s
}

// genParams is the stream's shape with its length filled in.
func (s spec) genParams() genParams {
	p := s.gen
	p.ops = s.cps * s.opsPerCP
	if s.preloadOps > 0 {
		p.ops += s.preloadCPs * s.preloadOps
	} else {
		p.ops += s.preloadCPs * s.opsPerCP
	}
	return p
}

// effectiveConfig is the Config a round opens the store with.
func (s spec) effectiveConfig(dir string, rec *recorder) backlog.Config {
	cfg := backlog.Config{Dir: dir, WriteShards: writeShards}
	s.config(&cfg)
	if rec != nil {
		cfg.Metrics = true
		cfg.MetricsSampleEvery = 1
		cfg.Tracer = rec
	}
	return cfg
}

// samples holds one round's per-call latencies.
type samples struct {
	ack, checkpoint, query []time.Duration
}

// roundResult is what one round measured. Durations and counts are raw;
// metrics.go turns them into named metrics.
type roundResult struct {
	setup                  time.Duration // generator, directory, Open of the empty store
	preload                time.Duration // ingest of the preload CPs (and the reopen after it, if any)
	updateWall             time.Duration // replay + checkpoint + maintain, generator excluded
	updateCall             time.Duration // time inside AddRef/RemoveRef, summed over clients (traced rounds only)
	checkpointWall         time.Duration
	maintainWall           time.Duration
	queryWall, scanWall    time.Duration
	reopen                 time.Duration
	updates, queries       int
	scanBlocks             int
	liveRefs               int
	sizeBytes              int64
	queryReadBytes         uint64 // query-tagged device reads during the measured queries
	lat                    samples
	attempted, failed      int
	io, reopenIO           backlog.IOReport
	stats, reopenStats     backlog.Stats
	maint                  backlog.MaintenanceStats
	metrics, reopenMetrics backlog.MetricsSnapshot
	runs                   []backlog.RunInfo
	lastCP                 []op // the last consistency point's ops, for the layer probes
}

// measuredWall is the part of a round the traced/untraced comparison
// uses. A concurrent reader's wall time lies inside the update phase's.
func (r *roundResult) measuredWall(s spec) time.Duration {
	if s.reader {
		return r.updateWall + r.scanWall
	}
	return r.updateWall + r.queryWall + r.scanWall
}

// round is the state of one round in flight.
type round struct {
	s   spec
	g   *generator
	db  *backlog.DB
	rec *recorder // nil on untraced rounds
	res *roundResult
	mu  sync.Mutex // guards res against the writers of one CP
	cp  uint64
	// snaps is the sliding window of retained snapshot versions.
	snaps []uint64
}

func (r *round) fail(what string, err error) {
	r.res.failed++
	if r.res.failed > 10 {
		return // the count is what matters; do not flood the log
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %s: %v\n", r.s.name, what, err)
}

func sourceIO(rep backlog.IOReport, src string) backlog.SourceIO {
	for _, s := range rep.Sources {
		if s.Source == src {
			return s
		}
	}
	return backlog.SourceIO{}
}

// runRound plays one full round of s on a fresh store under workdir and
// removes the store's directory before returning. keep, when non-nil, is
// called with the closed store's directory first (the layer probes read
// the finished store).
func runRound(s spec, seed uint64, workdir string, rec *recorder, keep func(dir string, res *roundResult) error) (res *roundResult, err error) {
	res = &roundResult{}
	r := &round{s: s, rec: rec, res: res}
	if rec != nil {
		rec.reset()
	}
	// Every round starts from a collected heap, so that the previous
	// round's garbage is not collected on this round's clocks.
	runtime.GC()
	start := time.Now()
	dir, err := os.MkdirTemp(workdir, s.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	r.g = newGenerator(seed, s.genParams())
	cfg := s.effectiveConfig(dir, rec)
	preloadCfg := cfg
	if s.preload != nil {
		s.preload(&preloadCfg)
	}
	if r.db, err = r.open(preloadCfg); err != nil {
		return nil, err
	}
	// Close is idempotent, so the error paths can share this one; the
	// closure sees whichever handle is current (none after a failed reopen).
	defer func() {
		if r.db != nil {
			r.db.Close()
		}
	}()
	res.setup = time.Since(start)

	// Preload: bring the store to the state the measured phases start from.
	preloadStart := time.Now()
	bufs := make([][]op, s.writers)
	for i := range bufs {
		bufs[i] = make([]op, 0, s.opsPerCP)
	}
	cpOps := make([]op, s.opsPerCP)
	preOps := cpOps
	if s.preloadOps > 0 {
		preOps = make([]op, s.preloadOps)
	}
	total := s.preloadCPs + s.cps
	for i := 0; i < s.preloadCPs; i++ {
		r.g.fillCP(preOps)
		r.consistencyPoint(preOps, bufs, i, total, false)
	}
	if s.preload != nil {
		if err := r.timedControl(spClose, r.db.Close); err != nil {
			return nil, err
		}
		if r.db, err = r.open(cfg); err != nil {
			return nil, err
		}
	}
	res.preload = time.Since(preloadStart)

	// Update phase. Only the engine is on the clock: each CP's ops are
	// generated before its replay is timed.
	before := r.db.IOReport()
	var hot atomic.Pointer[[]uint64]
	var readerDone chan struct{}
	stopReader := make(chan struct{})
	if s.reader {
		r.publishHot(&hot, cpOps[:0])
		readerDone = make(chan struct{})
		go r.readLoop(&hot, stopReader, readerDone)
	}
	for i := s.preloadCPs; i < total; i++ {
		r.g.fillCP(cpOps)
		if s.reader {
			r.publishHot(&hot, cpOps)
		}
		r.consistencyPoint(cpOps, bufs, i, total, true)
	}
	if s.reader {
		close(stopReader)
		<-readerDone
	}
	if err := r.db.DurabilityErr(); err != nil {
		r.fail("durability", err)
	}

	// Query phase: point queries, then range scans. The concurrent reader
	// of a reader workload has already made its queries.
	qrnd := rng(seed ^ 0x51ED270B)
	if !s.reader {
		pick := newZipf(s.gen.blocks, s.queryTheta)
		t0 := time.Now()
		for i := 0; i < s.queries; i++ {
			b := (pick.rank(qrnd.float())*r.g.mul + r.g.off) & (s.gen.blocks - 1)
			r.query(b)
		}
		res.queryWall = time.Since(t0)
	}
	after := r.db.IOReport()
	res.queryReadBytes = sourceIO(after, "query").ReadBytes - sourceIO(before, "query").ReadBytes
	for i := 0; i < s.scans; i++ {
		r.scan(qrnd.next() % (s.gen.blocks - uint64(s.scanLen)))
	}

	// Oracle, end state, clean close.
	r.auditAll()
	res.io = r.db.IOReport()
	res.stats = r.db.Stats()
	res.maint = r.db.MaintenanceStats()
	res.metrics = r.db.Metrics()
	res.runs = r.db.Runs()
	res.lastCP = cpOps
	if err := r.timedControl(spClose, r.db.Close); err != nil {
		r.fail("close", err)
	}

	// Reopen (on the durable workload this replays the log tail), audit
	// again, and take the sizes a user pays for.
	t0 := time.Now()
	if r.db, err = r.open(cfg); err != nil {
		return nil, err
	}
	res.reopen = time.Since(t0)
	// Recovery's own I/O, before the audit adds its queries.
	res.reopenIO = r.db.IOReport()
	res.reopenStats = r.db.Stats()
	res.reopenMetrics = r.db.Metrics()
	r.auditAll()
	res.liveRefs = r.g.liveRefs()
	res.sizeBytes = r.db.SizeBytes()
	if err := r.timedControl(spClose, r.db.Close); err != nil {
		r.fail("close after reopen", err)
	}
	if keep != nil {
		if err := keep(dir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *round) open(cfg backlog.Config) (db *backlog.DB, err error) {
	r.res.attempted++
	err = r.timedControl(spOpen, func() error {
		db, err = backlog.Open(cfg)
		return err
	})
	return db, err
}

// timedControl runs a whole-database call inside a control span.
func (r *round) timedControl(k spanKind, fn func() error) error {
	if r.rec == nil {
		return fn()
	}
	t := time.Now()
	r.rec.beginControl(k, t)
	err := fn()
	r.rec.endControl(time.Since(t))
	return err
}

// consistencyPoint replays one generated CP, checkpoints it and runs
// maintenance when due. i counts CPs from the first preloaded one.
func (r *round) consistencyPoint(cpOps []op, bufs [][]op, i, total int, measured bool) {
	s, res := r.s, r.res
	r.cp++
	// Clients split the CP by block, so both ops of a reference reach the
	// same client in order.
	for w := range bufs {
		bufs[w] = bufs[w][:0]
	}
	for _, o := range cpOps {
		w := int(o.ref.Block) % s.writers
		bufs[w] = append(bufs[w], o)
	}
	res.attempted += len(cpOps)

	t0 := time.Now()
	if s.writers == 1 {
		r.replay(0, bufs[0], measured)
	} else {
		var wg sync.WaitGroup
		for w := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.replay(w, bufs[w], measured)
			}()
		}
		wg.Wait()
	}
	replayed := time.Since(t0)

	var checkpointed, maintained time.Duration
	if i < total-s.logTailCPs {
		cat := r.db.Catalog()
		if s.snapshotEvery > 0 && (i+1)%s.snapshotEvery == 0 {
			res.attempted++
			if err := cat.CreateSnapshot(0, r.cp); err != nil {
				r.fail("create snapshot", err)
			}
			r.snaps = append(r.snaps, r.cp)
			if s.snapshotWindow > 0 && len(r.snaps) > s.snapshotWindow {
				res.attempted++
				if err := cat.DeleteSnapshot(0, r.snaps[0]); err != nil {
					r.fail("delete snapshot", err)
				}
				r.snaps = r.snaps[1:]
			}
		}
		res.attempted++
		t1 := time.Now()
		if err := r.timedControl(spCheckpoint, func() error { return r.db.Checkpoint(r.cp) }); err != nil {
			r.fail("checkpoint", err)
		}
		checkpointed = time.Since(t1)
		if (i+1)%s.maintainEvery == 0 && i < total-s.unmergedCPs {
			res.attempted++
			t2 := time.Now()
			if err := r.timedControl(spMaintain, r.db.Maintain); err != nil {
				r.fail("maintain", err)
			}
			maintained = time.Since(t2)
		}
	}
	if measured {
		res.updates += len(cpOps)
		res.updateWall += replayed + checkpointed + maintained
		res.checkpointWall += checkpointed
		res.maintainWall += maintained
		if checkpointed > 0 {
			r.res.lat.checkpoint = append(r.res.lat.checkpoint, checkpointed)
		}
	}
}

// replay issues one client's share of a CP, closed loop. Untraced rounds
// time one update in ackEvery; traced rounds time and span every one.
func (r *round) replay(c int, ops []op, measured bool) {
	every := r.s.ackEvery
	var lat []time.Duration
	var inCalls time.Duration
	for i := range ops {
		o := &ops[i]
		timed := measured && i%every == 0
		if !timed && r.rec == nil {
			r.apply(o)
			continue
		}
		t := time.Now()
		if r.rec != nil {
			k := spAddRef
			if o.remove {
				k = spRemoveRef
			}
			r.rec.begin(c, k, o.ref.Block, t)
		}
		r.apply(o)
		d := time.Since(t)
		if r.rec != nil {
			r.rec.end(c, d)
			inCalls += d
		}
		if timed {
			lat = append(lat, d)
		}
	}
	r.mu.Lock() // two writers finish a CP together
	r.res.lat.ack = append(r.res.lat.ack, lat...)
	if measured {
		r.res.updateCall += inCalls
	}
	r.mu.Unlock()
}

func (r *round) apply(o *op) {
	if o.remove {
		r.db.RemoveRef(o.ref, r.cp)
	} else {
		r.db.AddRef(o.ref, r.cp)
	}
}

// timedQuery makes one Query call as client c inside a span.
func (r *round) timedQuery(c int, block uint64) ([]backlog.Owner, time.Duration, error) {
	t := time.Now()
	if r.rec != nil {
		r.rec.begin(c, spQuery, block, t)
	}
	owners, err := r.db.Query(block)
	d := time.Since(t)
	if r.rec != nil {
		r.rec.end(c, d)
	}
	return owners, d, err
}

// query is one call of the query phase: timed into the pooled samples and,
// on an audited block, checked against the oracle.
func (r *round) query(block uint64) {
	owners, d, err := r.timedQuery(0, block)
	r.res.lat.query = append(r.res.lat.query, d)
	r.res.queries++
	r.res.attempted++
	if err != nil {
		r.fail("query", err)
	} else if r.g.audited(block) && !r.g.check(block, owners) {
		r.fail("query", fmt.Errorf("block %d: live owners differ from the oracle", block))
	}
}

// publishHot hands the reader the blocks it should favour: those of the
// CP being written, most recent first. A fresh slice per CP, because the
// reader may still hold the previous one.
func (r *round) publishHot(hot *atomic.Pointer[[]uint64], cpOps []op) {
	blocks := make([]uint64, 0, len(cpOps)+1)
	for i := len(cpOps) - 1; i >= 0; i-- {
		blocks = append(blocks, cpOps[i].ref.Block)
	}
	if len(blocks) == 0 {
		blocks = append(blocks, r.g.auditList[0])
	}
	hot.Store(&blocks)
}

// readLoop is the mixed workload's reader: closed loop, zipfian over the
// recently written blocks, until the writer finishes. It is the last
// client, so it never shares a span buffer with a writer.
func (r *round) readLoop(hot *atomic.Pointer[[]uint64], stop, done chan struct{}) {
	defer close(done)
	c := r.s.writers
	rnd := rng(r.g.mul ^ 0xC0FFEE)
	pick := newZipf(uint64(r.s.opsPerCP), r.s.queryTheta)
	var lat []time.Duration
	var firstErr error
	failed := 0
	t0 := time.Now()
	for {
		select {
		case <-stop:
			// The writer is idle from here until done closes, so the
			// round's result can be updated without a lock. The oracle
			// cannot check these answers: the writer moves on meanwhile.
			r.res.queryWall = time.Since(t0)
			r.res.lat.query = append(r.res.lat.query, lat...)
			r.res.queries += len(lat)
			r.res.attempted += len(lat)
			r.res.failed += failed
			if firstErr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: reader: %d failed, first: %v\n", r.s.name, failed, firstErr)
			}
			return
		default:
		}
		blocks := *hot.Load()
		_, d, err := r.timedQuery(c, blocks[pick.rank(rnd.float())%uint64(len(blocks))])
		lat = append(lat, d)
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
}

// scan makes one QueryRange call over scanLen blocks, checking every
// audited block it passes.
func (r *round) scan(from uint64) {
	n := 0
	t := time.Now()
	if r.rec != nil {
		r.rec.begin(0, spQueryRange, from, t)
	}
	err := r.db.QueryRange(from, r.s.scanLen, func(b uint64, owners []backlog.Owner) bool {
		n++
		if r.g.audited(b) && !r.g.check(b, owners) {
			r.fail("scan", fmt.Errorf("block %d: live owners differ from the oracle", b))
		}
		return true
	})
	d := time.Since(t)
	if r.rec != nil {
		r.rec.end(0, d)
	}
	r.res.scanWall += d
	r.res.scanBlocks += n
	r.res.attempted++
	if err != nil {
		r.fail("scan", err)
	} else if n != r.s.scanLen {
		r.fail("scan", fmt.Errorf("visited %d of %d blocks", n, r.s.scanLen))
	}
}

// auditAll queries every audited block and compares with the oracle. It
// is untimed and untraced: it is the check, not the workload.
func (r *round) auditAll() {
	for _, b := range r.g.auditList {
		r.res.attempted++
		owners, err := r.db.Query(b)
		if err != nil {
			r.fail("audit", err)
		} else if !r.g.check(b, owners) {
			r.fail("audit", fmt.Errorf("block %d: live owners differ from the oracle", b))
		}
	}
}
