package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// ingestOp is one pre-generated write operation of a worker's stream.
type ingestOp struct {
	r      Ref
	cp     uint64
	remove bool
}

// genStreams builds deterministic per-worker operation streams. Identities
// are disjoint across workers (inode = worker+1, offset = op index), so
// the final record set — and therefore every query result — is independent
// of how the streams interleave, which is what lets a single-threaded
// replay serve as the oracle.
func genStreams(workers, opsEach, blocks int, maxCP uint64) [][]ingestOp {
	streams := make([][]ingestOp, workers)
	for w := range streams {
		rng := rand.New(rand.NewSource(int64(1000 + w)))
		var live []Ref
		for i := 0; i < opsEach; i++ {
			cp := uint64(1) + uint64(i)*maxCP/uint64(opsEach)
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				r := live[k]
				live = append(live[:k], live[k+1:]...)
				streams[w] = append(streams[w], ingestOp{r: r, cp: cp, remove: true})
			} else {
				r := Ref{
					Block:  uint64(rng.Intn(blocks)),
					Inode:  uint64(w + 1),
					Offset: uint64(i),
					Length: 1,
				}
				live = append(live, r)
				streams[w] = append(streams[w], ingestOp{r: r, cp: cp})
			}
		}
	}
	return streams
}

// TestConcurrentIngestMatchesOracle hammers AddRef/RemoveRef from several
// goroutines while checkpoints, compactions, and queries run concurrently,
// then verifies every block's live owners against the streams' own final
// reference set. (That a sharded write store answers — and flushes — like a
// single one is TestCheckpointFlushRunSetIgnoresShardCount's.) Run it under
// -race.
func TestConcurrentIngestMatchesOracle(t *testing.T) {
	const (
		workers = 8
		opsEach = 1500
		blocks  = 512
		maxCP   = 16
	)
	env := newTestEnv(t, Options{WriteShards: workers})

	// Retain every CP version of line 0 so completed intervals survive
	// concurrent compaction's purge and keep taking part in the joins.
	for v := uint64(1); v <= maxCP+1; v++ {
		if err := env.cat.CreateSnapshot(0, v); err != nil {
			t.Fatal(err)
		}
	}

	streams := genStreams(workers, opsEach, blocks, maxCP)

	stop := make(chan struct{})
	errc := make(chan error, 4)

	// Concurrent checkpointer: flushes every shard's records at an
	// increasing CP, with an occasional full compaction mixed in.
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
			if err := env.eng.Checkpoint(cp); err != nil {
				errc <- fmt.Errorf("checkpoint %d: %w", cp, err)
				return
			}
			lastCP = cp
			if cp%8 == 0 {
				if err := env.eng.Compact(); err != nil {
					errc <- fmt.Errorf("compact at %d: %w", cp, err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Concurrent query hammer: results are not asserted mid-flight (they
	// race with ingest by design); this exists to drive the shared read
	// path under -race.
	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := env.eng.Query(uint64(rng.Intn(blocks))); err != nil {
				errc <- fmt.Errorf("concurrent query: %w", err)
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
					env.eng.RemoveRef(o.r, o.cp)
				} else {
					env.eng.AddRef(o.r, o.cp)
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

	// Drain everything still buffered.
	final := lastCP + 1
	if final < maxCP+2 {
		final = maxCP + 2
	}
	mustCheckpoint(t, env.eng, final)
	if got := env.eng.WSLen(); got != 0 {
		t.Fatalf("WSLen = %d after final checkpoint", got)
	}
	var totalOps uint64
	want := map[Ref]bool{}
	for _, stream := range streams {
		for _, o := range stream {
			if o.remove {
				delete(want, o.r)
			} else {
				want[o.r] = true
				totalOps++
			}
		}
	}
	if st := env.eng.Stats(); st.RefsAdded != totalOps {
		t.Fatalf("RefsAdded = %d, want %d", st.RefsAdded, totalOps)
	}

	var live int
	for b := uint64(0); b < blocks; b++ {
		for _, o := range mustQuery(t, env.eng, b) {
			if !o.Live {
				continue
			}
			live++
			if r := (Ref{Block: b, Inode: o.Inode, Offset: o.Offset, Line: o.Line, Length: o.Length}); !want[r] {
				t.Fatalf("block %d: live owner %+v was removed or never added", b, r)
			}
		}
	}
	if live != len(want) {
		t.Fatalf("%d live owners, the streams leave %d", live, len(want))
	}
}

// TestConcurrentMixedWorkloadRaces drives every public mutating entry
// point at once — ingest, checkpoints, compaction, relocation, point and
// range queries — purely for race and deadlock coverage. Relocations use a
// block range the ingest workers never touch, so every call must succeed.
func TestConcurrentMixedWorkloadRaces(t *testing.T) {
	const (
		workers     = 4
		opsEach     = 800
		blocks      = 256
		relocBase   = uint64(1 << 20)
		relocatable = 64
	)
	env := newTestEnv(t, Options{WriteShards: 0}) // 0 = GOMAXPROCS default
	// Keep line 0 alive with a snapshot so concurrent compaction retains
	// (rather than purges) the records relocation shuffles around.
	if err := env.cat.CreateSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < relocatable; i++ {
		env.eng.AddRef(Ref{Block: relocBase + i, Inode: 7777, Offset: i, Length: 1}, 1)
	}
	mustCheckpoint(t, env.eng, 1)

	streams := genStreams(workers, opsEach, blocks, 8)
	stop := make(chan struct{})
	errc := make(chan error, 8)
	var aux sync.WaitGroup

	aux.Add(1)
	go func() { // checkpoints + compaction
		defer aux.Done()
		for cp := uint64(10); ; cp++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := env.eng.Checkpoint(cp); err != nil {
				errc <- err
				return
			}
			if cp%6 == 0 {
				if err := env.eng.Compact(); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	aux.Add(1)
	go func() { // relocations in a private block range
		defer aux.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			old := relocBase + i%relocatable
			if err := env.eng.RelocateBlock(old, old+relocatable); err != nil {
				errc <- err
				return
			}
			if err := env.eng.RelocateBlock(old+relocatable, old); err != nil {
				errc <- err
				return
			}
		}
	}()
	aux.Add(1)
	go func() { // point + range queries
		defer aux.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := env.eng.Query(uint64(rng.Intn(blocks))); err != nil {
				errc <- err
				return
			}
			err := env.eng.QueryRange(uint64(rng.Intn(blocks)), 4, func(uint64, []Owner) bool { return true })
			if err != nil {
				errc <- err
				return
			}
			_ = env.eng.WSLen()
			_ = env.eng.Stats()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stream []ingestOp) {
			defer wg.Done()
			for _, o := range stream {
				if o.remove {
					env.eng.RemoveRef(o.r, o.cp)
				} else {
					env.eng.AddRef(o.r, o.cp)
				}
			}
		}(streams[w])
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// The engine must still be fully functional afterwards.
	mustCheckpoint(t, env.eng, 1<<30)
	if got := env.eng.WSLen(); got != 0 {
		t.Fatalf("WSLen = %d after final checkpoint", got)
	}
}

// TestCheckpointFlushOneRunPerTablePartition keeps the shard count from
// coming back as a run multiplier: with records of two tables in every one
// of eight shards, a checkpoint writes one run per table and partition.
func TestCheckpointFlushOneRunPerTablePartition(t *testing.T) {
	const shards, partitions, blocks = 8, 4, 1024
	env := newTestEnv(t, Options{WriteShards: shards, Partitions: partitions, PartitionSpan: blocks / partitions})
	for b := uint64(0); b < blocks; b++ {
		env.eng.AddRef(ref(b, 1, 0, 0), 1)
		env.eng.RemoveRef(ref(b, 2, 0, 0), 1) // a To record needs no AddRef before it
	}
	for i, s := range env.eng.shards {
		if s.active.from.Len() == 0 || s.active.to.Len() == 0 {
			t.Fatalf("shard %d holds %d From and %d To records; the guard needs both in every shard",
				i, s.active.from.Len(), s.active.to.Len())
		}
	}
	mustCheckpoint(t, env.eng, 1)
	if n := env.eng.RunCount(); n != 2*partitions {
		t.Fatalf("%d runs after one checkpoint of two tables over %d partitions, want %d: %+v",
			n, partitions, 2*partitions, env.eng.RunInfos())
	}
}
