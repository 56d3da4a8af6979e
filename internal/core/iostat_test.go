package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// sumSourceIO folds a report's per-source counters and returns the
// totals plus the counters that landed under "unknown".
func sumSourceIO(rep IOReport) (reads, writes, syncs, creates, removes uint64, unknown obs.SourceIO) {
	for _, s := range rep.Sources {
		reads += s.ReadBytes
		writes += s.WriteBytes
		syncs += s.Syncs
		creates += s.Creates
		removes += s.Removes
		if s.Source == storage.SrcUnknown.String() {
			unknown = s
		}
	}
	return
}

// TestIOAttributionRaceExactSums hammers the engine with concurrent
// ingest, checkpoints, compactions, expiry, and queries (run under -race),
// then closes it and checks the attribution contract against the metered
// MemFS: every device byte is attributed to a source — per-source sums
// equal the device totals exactly, and nothing leaks into "unknown".
func TestIOAttributionRaceExactSums(t *testing.T) {
	const (
		workers = 4
		opsEach = 2000
		blocks  = 256
		maxCP   = 8
	)
	fs := storage.NewMemFS()
	cat := NewMemCatalog()
	// Buffered durability journals every update, so the WAL source carries
	// traffic too (the default checkpoint-only mode opens no writing log).
	eng, err := Open(Options{
		VFS: fs, Catalog: cat, WriteShards: workers, Retention: RetainLive,
		Durability: wal.Buffered,
	})
	if err != nil {
		t.Fatal(err)
	}

	streams := genStreams(workers, opsEach, blocks, maxCP)
	stop := make(chan struct{})
	errc := make(chan error, 2)

	var lastCP uint64
	cpDone := make(chan struct{})
	go func() {
		defer close(cpDone)
		for cp := uint64(maxCP + 2); ; cp++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Checkpoint(cp); err != nil {
				errc <- fmt.Errorf("checkpoint %d: %w", cp, err)
				return
			}
			lastCP = cp
			if cp%4 == 0 {
				if err := eng.Compact(); err != nil {
					errc <- fmt.Errorf("compact at %d: %w", cp, err)
					return
				}
			}
			if cp%3 == 0 {
				// Expiry may defer under a concurrent checkpoint; the point
				// here is driving its removal path, not its yield.
				if _, err := eng.Expire(); err != nil {
					errc <- fmt.Errorf("expire at %d: %w", cp, err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Query(uint64(rng.Intn(blocks))); err != nil {
				errc <- fmt.Errorf("query: %w", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stream []ingestOp) {
			defer wg.Done()
			for _, o := range stream {
				if o.remove {
					eng.RemoveRef(o.r, o.cp)
				} else {
					eng.AddRef(o.r, o.cp)
				}
			}
		}(streams[w])
	}
	wg.Wait()
	close(stop)
	<-cpDone
	<-queryDone
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// A deterministic tail so every subsystem has certainly run at least
	// once regardless of how far the background loop got: drain the write
	// stores, merge, and expire.
	final := lastCP + 1
	if final < maxCP+2 {
		final = maxCP + 2
	}
	if err := eng.Checkpoint(final); err != nil {
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Expire(); err != nil {
		t.Fatal(err)
	}

	// Quiesce before comparing: Close stops the maintainer and flushes, and
	// everything it writes is itself attributed.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rep := eng.IOReport()
	st := fs.Stats()
	reads, writes, syncs, creates, removes, unknown := sumSourceIO(rep)
	if reads != uint64(st.BytesRead) || writes != uint64(st.BytesWritten) {
		t.Errorf("attributed bytes = %d read / %d written, device = %d / %d",
			reads, writes, st.BytesRead, st.BytesWritten)
	}
	if reads != rep.TotalReadBytes || writes != rep.TotalWriteBytes {
		t.Errorf("report totals %d/%d disagree with per-source sums %d/%d",
			rep.TotalReadBytes, rep.TotalWriteBytes, reads, writes)
	}
	if syncs != uint64(st.Syncs) || creates != uint64(st.FilesCreated) || removes != uint64(st.FilesRemoved) {
		t.Errorf("attributed syncs/creates/removes = %d/%d/%d, device = %d/%d/%d",
			syncs, creates, removes, st.Syncs, st.FilesCreated, st.FilesRemoved)
	}
	if unknown.ReadBytes != 0 || unknown.WriteBytes != 0 || unknown.Syncs != 0 ||
		unknown.Creates != 0 || unknown.Removes != 0 {
		t.Errorf("unattributed i/o leaked from a hot path: %+v", unknown)
	}
	for _, src := range []storage.Source{storage.SrcWAL, storage.SrcCheckpoint, storage.SrcCompaction} {
		if rep.Sources[src].WriteBytes == 0 {
			t.Errorf("no write bytes attributed to %s under a write-heavy workload", src)
		}
	}
	if rep.Sources[storage.SrcManifest].WriteBytes == 0 {
		t.Error("no manifest bytes attributed despite committed checkpoints")
	}
	if n := rep.Sources[storage.SrcCheckpoint].ReadBytes; n != 0 {
		t.Errorf("checkpoints read %d bytes: an install opens the runs it built from their builders, not from their header pages", n)
	}

	// Reopen the same directory with a fresh accountant: startup I/O
	// (manifest, deletion vectors, run headers, WAL scan) lands under
	// recovery, and the exact-sum contract holds for the delta too.
	pre := fs.Stats()
	eng2, err := Open(Options{VFS: fs, Catalog: cat, WriteShards: workers})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Query(1); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	rep2 := eng2.IOReport()
	delta := fs.Stats().Sub(pre)
	reads2, writes2, _, _, _, unknown2 := sumSourceIO(rep2)
	if reads2 != uint64(delta.BytesRead) || writes2 != uint64(delta.BytesWritten) {
		t.Errorf("reopen attributed %d/%d bytes, device delta %d/%d",
			reads2, writes2, delta.BytesRead, delta.BytesWritten)
	}
	if rep2.Sources[storage.SrcRecovery].ReadBytes == 0 {
		t.Error("no read bytes attributed to recovery on reopen of a populated store")
	}
	if unknown2.ReadBytes != 0 || unknown2.WriteBytes != 0 {
		t.Errorf("unattributed i/o leaked during recovery: %+v", unknown2)
	}
}

// TestRunHeatTracking checks per-run access heat: cold queries that read
// run pages from the device bump the run's HeatBytes and stamp
// LastAccessCP, while untouched runs stay cold.
func TestRunHeatTracking(t *testing.T) {
	fs := storage.NewMemFS()
	cat := NewMemCatalog()
	eng, err := Open(Options{VFS: fs, Catalog: cat, WriteShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 256; i++ {
		eng.AddRef(Ref{Block: i, Inode: 1, Offset: i, Length: 1}, 1)
	}
	if err := eng.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// A cold reopen: the page cache is empty, so the first query must read
	// from the device through the query-tagged, heat-hooked handles.
	eng, err = Open(Options{VFS: fs, Catalog: cat, WriteShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, ri := range eng.RunInfos() {
		if ri.HeatBytes != 0 || ri.LastAccessCP != 0 {
			t.Fatalf("run %s/%d warm before any query: heat=%d lastCP=%d",
				ri.Table, ri.Partition, ri.HeatBytes, ri.LastAccessCP)
		}
	}
	if _, err := eng.Query(100); err != nil {
		t.Fatal(err)
	}
	var warm int
	for _, ri := range eng.RunInfos() {
		if ri.HeatBytes > 0 {
			warm++
			if ri.LastAccessCP != eng.CP() {
				t.Errorf("run %s/%d heat=%d but lastCP=%d, want %d",
					ri.Table, ri.Partition, ri.HeatBytes, ri.LastAccessCP, eng.CP())
			}
		}
	}
	if warm == 0 {
		t.Error("cold query read no run pages: heat tracking recorded nothing")
	}
	if r, _ := eng.IOStats().SourceBytes(storage.SrcQuery); r == 0 {
		t.Error("cold query attributed no read bytes to the query source")
	}
}

// TestIOReportWriteAmp checks the report's derived figures: UserBytes is
// the record-encoded ingest volume and cumulative WriteAmp is device-out
// over user-in.
func TestIOReportWriteAmp(t *testing.T) {
	env := newTestEnv(t, Options{WriteShards: 1})
	const adds, removes = 300, 50
	for i := uint64(0); i < adds; i++ {
		env.eng.AddRef(Ref{Block: i, Inode: 1, Offset: i, Length: 1}, 1)
	}
	for i := uint64(0); i < removes; i++ {
		env.eng.RemoveRef(Ref{Block: i, Inode: 1, Offset: i, Length: 1}, 1)
	}
	mustCheckpoint(t, env.eng, 2)

	rep := env.eng.IOReport()
	want := uint64(adds)*uint64(FromRecSize) + uint64(removes)*uint64(ToRecSize)
	if rep.UserBytes != want {
		t.Errorf("UserBytes = %d, want %d", rep.UserBytes, want)
	}
	if rep.TotalWriteBytes == 0 {
		t.Fatal("no device writes after a checkpoint")
	}
	wantAmp := float64(rep.TotalWriteBytes) / float64(rep.UserBytes)
	if rep.WriteAmp != wantAmp {
		t.Errorf("WriteAmp = %v, want %v", rep.WriteAmp, wantAmp)
	}
	if rep.WriteAmp <= 0 {
		t.Errorf("WriteAmp = %v, expected > 0", rep.WriteAmp)
	}
}

// captureTracer retains end events for the slow-op byte assertions.
type captureTracer struct {
	mu     sync.Mutex
	events []obs.OpEvent
}

func (c *captureTracer) OpStart(obs.OpEvent) {}
func (c *captureTracer) OpEnd(ev obs.OpEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// TestOpEventIOBytes checks that traced operations carry their source's
// device byte deltas: a checkpoint's end event reports the run-build
// writes that happened during it.
func TestOpEventIOBytes(t *testing.T) {
	tr := &captureTracer{}
	env := newTestEnv(t, Options{WriteShards: 1, Tracer: tr})
	for i := uint64(0); i < 200; i++ {
		env.eng.AddRef(Ref{Block: i, Inode: 1, Offset: i, Length: 1}, 1)
	}
	mustCheckpoint(t, env.eng, 2)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	var cpEv *obs.OpEvent
	for i := range tr.events {
		if tr.events[i].Kind == obs.OpCheckpoint {
			cpEv = &tr.events[i]
		}
	}
	if cpEv == nil {
		t.Fatal("no checkpoint end event traced")
	}
	if cpEv.WriteBytes == 0 {
		t.Error("checkpoint end event carries no write bytes")
	}
	r, w := env.eng.IOStats().SourceBytes(storage.SrcCheckpoint)
	if cpEv.WriteBytes > w || cpEv.ReadBytes > r {
		t.Errorf("event deltas %d/%d exceed the source's cumulative %d/%d",
			cpEv.ReadBytes, cpEv.WriteBytes, r, w)
	}
}
