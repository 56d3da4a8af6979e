package core

import (
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

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
