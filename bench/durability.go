package main

import (
	"fmt"
	"sync"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

// crashDurabilityCheck replays a small replica of the durable workload on
// a simulated file system that, unlike killing a process on a real one,
// can discard every byte not yet fsynced. The stream stops half way into a
// consistency point, after every issued update has been acknowledged; the
// crash follows, and the reopened store must hold exactly those updates.
// Untimed: it is a correctness gate, not a measurement.
func crashDurabilityCheck(seed uint64, s spec) error {
	const totalOps = 20000
	opsPerCP := min(s.opsPerCP, totalOps/4)
	fs := storage.NewMemFS()
	open := func() (*core.Engine, error) {
		return core.Open(core.Options{VFS: fs, Catalog: core.NewMemCatalog(),
			WriteShards: writeShards, Durability: wal.Sync})
	}
	eng, err := open()
	if err != nil {
		return err
	}
	p := s.gen
	p.ops = totalOps
	g := newGenerator(seed, p)
	buf := make([]op, opsPerCP)
	for done, cp := 0, uint64(1); done < totalOps; cp++ {
		ops := buf
		last := done+len(ops) >= totalOps
		if last {
			ops = buf[:opsPerCP/2] // the crash comes mid-CP, with no checkpoint after these
		}
		g.fillCP(ops)
		var wg sync.WaitGroup
		for w := range s.writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ops {
					o := &ops[i]
					switch {
					case int(o.ref.Block)%s.writers != w:
					case o.remove:
						eng.RemoveRef(o.ref, cp)
					default:
						eng.AddRef(o.ref, cp)
					}
				}
			}()
		}
		wg.Wait()
		if err := eng.WALErr(); err != nil {
			return fmt.Errorf("log append: %w", err)
		}
		if last {
			break
		}
		if err := eng.Checkpoint(cp); err != nil {
			return err
		}
		done += len(ops)
	}
	// Power failure: the old engine is abandoned, not closed.
	fs.Crash()
	eng, err = open()
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer eng.Close()
	if eng.Stats().WALReplayed == 0 {
		return fmt.Errorf("reopen after crash replayed no log records")
	}
	for _, b := range g.auditList {
		owners, err := eng.Query(b)
		if err != nil {
			return err
		}
		if !g.check(b, owners) {
			return fmt.Errorf("block %d: an acknowledged update is missing after the crash", b)
		}
	}
	return nil
}
