package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// oracle is a reference implementation of back-reference semantics built
// directly from the event history, independent of tables, runs, pruning,
// and compaction. It shares only the catalog with the engine. Events are
// keyed by the full Ref (including the block): the same (inode, offset,
// line) may reference different blocks over time, and each block's history
// is independent.
type oracle struct {
	events map[Ref][]oracleEvent
}

type oracleEvent struct {
	cp  uint64
	add bool
}

func newOracle() *oracle {
	return &oracle{events: map[Ref][]oracleEvent{}}
}

func (o *oracle) addRef(r Ref, cp uint64) {
	o.events[r] = append(o.events[r], oracleEvent{cp: cp, add: true})
}

func (o *oracle) removeRef(r Ref, cp uint64) {
	o.events[r] = append(o.events[r], oracleEvent{cp: cp, add: false})
}

// intervals derives the validity intervals of one reference from its event
// history, applying the same-CP cancellation semantics.
func (o *oracle) intervals(id Ref) []interval {
	var out []interval
	open := false
	var openFrom uint64
	for _, ev := range o.events[id] {
		if ev.add {
			if open {
				continue // double add: idempotent
			}
			// Re-add at the CP where the previous interval closed:
			// the interval continues (reallocation pruning semantics).
			if n := len(out); n > 0 && out[n-1].to == ev.cp {
				openFrom = out[n-1].from
				out = out[:n-1]
				open = true
				continue
			}
			open, openFrom = true, ev.cp
		} else {
			if !open {
				// Remove of an inherited reference: override [0, cp).
				out = append(out, interval{from: 0, to: ev.cp})
				continue
			}
			if openFrom == ev.cp {
				// Added and removed in the same CP: vanishes.
				open = false
				continue
			}
			out = append(out, interval{from: openFrom, to: ev.cp})
			open = false
		}
	}
	if open {
		out = append(out, interval{from: openFrom, to: Infinity})
	}
	return out
}

// owners computes the expected query result for a block using the same
// expansion/masking semantics as the engine but from first principles.
func (o *oracle) owners(block uint64, cat Catalog) []Owner {
	groups := map[identity][]interval{}
	for r := range o.events {
		if r.Block != block {
			continue
		}
		ivs := o.intervals(r)
		if len(ivs) > 0 {
			groups[identOf(r)] = append(groups[identOf(r)], ivs...)
		}
	}
	for id := range groups {
		groups[id] = dedupeIntervals(groups[id])
	}
	expandInheritance(groups, cat)
	return maskOwners(groups, cat)
}

func ownersEqual(a, b []Owner) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Inode != y.Inode || x.Offset != y.Offset || x.Line != y.Line ||
			x.Length != y.Length || x.From != y.From || x.To != y.To || x.Live != y.Live {
			return false
		}
		if len(x.Versions) != len(y.Versions) {
			return false
		}
		for j := range x.Versions {
			if x.Versions[j] != y.Versions[j] {
				return false
			}
		}
	}
	return true
}

// TestEngineMatchesOracle drives a random workload — reference churn,
// snapshots, snapshot deletions, clones, periodic checkpoints and
// compactions — and verifies that every allocated block's query result
// matches the oracle at several points in time.
func TestEngineMatchesOracle(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOracleWorkload(t, seed, 60, 40)
		})
	}
}

func runOracleWorkload(t *testing.T, seed int64, cps int, blocks uint64) {
	rng := rand.New(rand.NewSource(seed))
	fs := storage.NewMemFS()
	cat := NewMemCatalog()
	eng, err := Open(Options{VFS: fs, Catalog: cat, Partitions: 2, PartitionSpan: blocks / 2})
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle()

	// live[ref identity] tracks which refs are currently open so the
	// workload stays well-formed (no double add / remove of absent).
	live := map[identity]Ref{}
	lines := []uint64{0}
	deadLines := map[uint64]bool{}
	type snap struct{ line, v uint64 }
	var snaps []snap
	nextLine := uint64(1)

	verify := func(label string) {
		t.Helper()
		for b := uint64(0); b < blocks; b++ {
			got, err := eng.Query(b)
			if err != nil {
				t.Fatalf("%s: query %d: %v", label, b, err)
			}
			want := orc.owners(b, cat)
			if !ownersEqual(got, want) {
				t.Fatalf("%s: block %d:\n got=%+v\nwant=%+v", label, b, got, want)
			}
		}
	}

	for cp := uint64(1); cp <= uint64(cps); cp++ {
		// Random ops within this CP.
		nops := 5 + rng.Intn(20)
		for i := 0; i < nops; i++ {
			switch {
			case rng.Intn(3) != 0 || len(live) == 0: // add
				line := lines[rng.Intn(len(lines))]
				if deadLines[line] {
					continue
				}
				r := Ref{
					Block:  uint64(rng.Intn(int(blocks))),
					Inode:  uint64(1 + rng.Intn(6)),
					Offset: uint64(rng.Intn(4)),
					Line:   line,
					Length: 1,
				}
				id := identOf(r)
				if _, open := live[id]; open {
					continue
				}
				// The same (inode, offset, line) may reference only one
				// block at a time in a real FS, but for back-reference
				// semantics identity includes the block, so this is fine.
				eng.AddRef(r, cp)
				orc.addRef(r, cp)
				live[id] = r
			default: // remove a random live ref
				for id, r := range live {
					eng.RemoveRef(r, cp)
					orc.removeRef(r, cp)
					delete(live, id)
					break
				}
			}
		}

		// Snapshot this CP sometimes.
		if rng.Intn(3) == 0 {
			line := lines[rng.Intn(len(lines))]
			if !deadLines[line] {
				if err := cat.CreateSnapshot(line, cp); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, snap{line, cp})
			}
		}
		// Clone an existing snapshot sometimes.
		if len(snaps) > 0 && rng.Intn(8) == 0 {
			s := snaps[rng.Intn(len(snaps))]
			if err := cat.CreateClone(nextLine, s.line, s.v); err == nil {
				lines = append(lines, nextLine)
				nextLine++
			}
		}
		// Delete a snapshot sometimes, then rebuild the tracking list from
		// the catalog (deletion may have turned it into a zombie).
		if len(snaps) > 0 && rng.Intn(6) == 0 {
			s := snaps[rng.Intn(len(snaps))]
			_ = cat.DeleteSnapshot(s.line, s.v)
			var kept []snap
			for _, sn := range snaps {
				if len(cat.SnapshotsIn(sn.line, sn.v, sn.v+1)) > 0 {
					kept = append(kept, sn)
				}
			}
			snaps = kept
		}

		if err := eng.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}

		// Mid-workload verifications and compactions.
		if cp == uint64(cps)/3 {
			verify("one-third")
		}
		if cp == uint64(cps)/2 {
			if err := eng.Compact(); err != nil {
				t.Fatal(err)
			}
			verify("post-compaction")
		}
	}

	verify("final")
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	verify("final-compacted")

	// Reopen from disk and verify again (durability).
	eng2, err := Open(Options{VFS: fs, Catalog: cat, Partitions: 2, PartitionSpan: blocks / 2})
	if err != nil {
		t.Fatal(err)
	}
	for b := uint64(0); b < blocks; b++ {
		got, err := eng2.Query(b)
		if err != nil {
			t.Fatal(err)
		}
		want := orc.owners(b, cat)
		if !ownersEqual(got, want) {
			t.Fatalf("reopen: block %d:\n got=%+v\nwant=%+v", b, got, want)
		}
	}
}
