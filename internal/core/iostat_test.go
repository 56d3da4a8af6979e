package core

import (
	"sync"
	"testing"

	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
)

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
