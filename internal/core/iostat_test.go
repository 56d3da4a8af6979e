package core

import (
	"strings"
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

// TestSyncBudget pins what a commit costs in file fsyncs, as IOReport
// counts them (directory syncs are not counted). N checkpoints of a
// CheckpointOnly store make N fsyncs, their run files', whose trailers are
// the commits, and the manifest source syncs and creates nothing though the
// trailers' bytes are its own. A Compact that merged makes one fsync for
// its merge file and one for its commit file. A Close after a checkpoint
// makes one commit file, and a Close with nothing new to commit — the last
// commit already in a commit file — makes none.
func TestSyncBudget(t *testing.T) {
	env := newTestEnv(t, Options{WriteShards: 1})
	src := func(s storage.Source) obs.SourceIO { return env.eng.IOReport().Sources[s] }
	syncs := func() (n uint64) {
		for _, s := range env.eng.IOReport().Sources {
			n += s.Syncs
		}
		return n
	}
	const n = 5
	for cp := uint64(1); cp <= n; cp++ {
		env.eng.AddRef(ref(cp, 1, cp, 0), cp)
		mustCheckpoint(t, env.eng, cp)
	}
	m := src(storage.SrcManifest)
	if got := syncs(); got != n || src(storage.SrcCheckpoint).Syncs != n || m.Syncs != 0 || m.Creates != 0 || m.WriteBytes == 0 {
		t.Fatalf("%d checkpoints: %d fsyncs, %d of them the checkpoint source's; the manifest source synced %d, created %d, wrote %d bytes",
			n, got, src(storage.SrcCheckpoint).Syncs, m.Syncs, m.Creates, m.WriteBytes)
	}

	before, comp := syncs(), src(storage.SrcCompaction).Syncs
	mustCompact(t, env.eng)
	if env.eng.Stats().Compactions != 1 || syncs()-before != 2 || src(storage.SrcCompaction).Syncs-comp != 1 ||
		src(storage.SrcManifest).Syncs != 1 || src(storage.SrcManifest).Creates != 1 {
		t.Fatalf("a Compact that merged: %d fsyncs, %d of them its merge file's; the manifest source synced %d and created %d",
			syncs()-before, src(storage.SrcCompaction).Syncs-comp, src(storage.SrcManifest).Syncs, src(storage.SrcManifest).Creates)
	}

	env.eng.AddRef(ref(n+1, 1, 0, 0), n+1)
	mustCheckpoint(t, env.eng, n+1)
	commitFiles := func(close func() error) int {
		t.Helper()
		var created int
		env.fs.SetFailurePlan(storage.FailurePlan{Hook: func(c storage.Call) error {
			if c.Op == storage.OpCreate && strings.HasPrefix(c.Name, "commit.") {
				created++
			}
			return nil
		}})
		defer env.fs.SetFailurePlan(storage.FailurePlan{})
		if err := close(); err != nil {
			t.Fatal(err)
		}
		return created
	}
	if got := commitFiles(env.eng.Close); got != 1 {
		t.Fatalf("a Close after a checkpoint made %d commit files, want 1", got)
	}
	eng, err := Open(Options{VFS: env.fs, Catalog: NewMemCatalog(), WriteShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := commitFiles(eng.Close); got != 0 {
		t.Fatalf("a second Close made %d commit files, want none", got)
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
