// Volume shrinking — the paper's bulk-migration use case (Section 3).
//
// To shrink a volume, every allocated block above the new size boundary
// must move below it, and *all* pointers to each moved block — live files,
// snapshots, clones — must be updated. Ext3 can only do this by walking
// the entire file system tree looking for pointers into the target range;
// with back references it is a range query.
//
// The example fills a simulated volume (with snapshots and a clone so
// blocks have multiple owners), then evacuates the upper half: one range
// query over the blocks above the boundary finds every block with an
// owner; for each it rewrites the owners' pointers and relocates the back
// references, and finally it verifies the whole database against a tree
// walk.
//
// Run with:
//
//	go run ./examples/volumeshrink
package main

import (
	"fmt"
	"log"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/fsim"
	"github.com/backlogfs/backlog/internal/storage"
)

func main() {
	vfs := storage.NewMemFS()
	cat := core.NewMemCatalog()
	eng, err := core.Open(core.Options{VFS: vfs, Catalog: cat})
	if err != nil {
		log.Fatal(err)
	}
	fs := fsim.New(fsim.Config{Tracker: eng, Catalog: cat, DedupRate: 0.10, Seed: 3})

	// Populate: a few files, a snapshot (so some blocks are pinned by
	// history), and a writable clone (so some blocks have owners on two
	// lines).
	var inos []uint64
	for i := 0; i < 6; i++ {
		ino, err := fs.CreateFile(0)
		if err != nil {
			log.Fatal(err)
		}
		if err := fs.WriteFile(0, ino, 0, 20); err != nil {
			log.Fatal(err)
		}
		inos = append(inos, ino)
	}
	snap, err := fs.TakeSnapshot(0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fs.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	clone, err := fs.Clone(0, snap)
	if err != nil {
		log.Fatal(err)
	}
	// Dirty some files on both lines so the upper range fills up.
	for _, ino := range inos[:3] {
		if err := fs.WriteFile(0, ino, 5, 10); err != nil {
			log.Fatal(err)
		}
		if err := fs.WriteFile(clone, ino, 0, 5); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := fs.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// Free some space first (a shrink is only possible when the volume has
	// slack): drop two files and reclaim their blocks.
	for _, ino := range inos[4:] {
		if err := fs.DeleteFile(0, ino); err != nil {
			log.Fatal(err)
		}
		if err := fs.DeleteFile(clone, ino); err != nil {
			log.Fatal(err)
		}
	}
	if err := fs.DeleteSnapshot(0, snap); err != nil {
		log.Fatal(err)
	}
	if _, err := fs.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fs.Reclaim()

	// Shrink: everything at or above the boundary must move. Choose the
	// smallest feasible boundary: the free slots below it must hold every
	// allocated block at or above it.
	allocated := fs.AllocatedBlocks()
	var boundary uint64
	for idx, b := range allocated {
		above := len(allocated) - idx
		freeBelow := int(b) - 1 - idx
		if freeBelow >= above {
			boundary = b
			break
		}
	}
	if boundary == 0 {
		log.Fatal("no feasible shrink boundary")
	}
	fmt.Printf("volume has %d allocated blocks; shrinking to blocks < %d\n", len(allocated), boundary)

	// Run maintenance first — the paper recommends compacting before
	// query-intensive tasks (Section 6.4).
	if err := eng.Compact(); err != nil {
		log.Fatal(err)
	}

	// A simple low-water allocator for the evacuation targets.
	inUse := map[uint64]bool{}
	for _, b := range allocated {
		inUse[b] = true
	}
	nextFree := uint64(1)
	alloc := func() uint64 {
		for inUse[nextFree] {
			nextFree++
		}
		if nextFree >= boundary {
			log.Fatal("volume too full to shrink to this boundary")
		}
		inUse[nextFree] = true
		return nextFree
	}

	// One range query over every block at or above the boundary finds the
	// blocks that must move: those with an owner.
	var evacuate []uint64
	if err := eng.QueryRange(boundary, int(fs.MaxBlock()-boundary), func(b uint64, owners []core.Owner) bool {
		if len(owners) > 0 {
			evacuate = append(evacuate, b)
		}
		return true
	}); err != nil {
		log.Fatal(err)
	}

	moved, pointerUpdates := 0, 0
	for _, b := range evacuate {
		target := alloc()
		// Update every owner's pointers (live images and snapshots), then
		// transplant the back references.
		pointerUpdates += fs.RelocateBlock(b, target)
		if err := eng.RelocateBlock(b, target); err != nil {
			log.Fatal(err)
		}
		delete(inUse, b)
		moved++
	}
	if _, err := fs.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("moved %d blocks below the boundary, rewriting %d file objects\n", moved, pointerUpdates)
	for _, b := range fs.AllocatedBlocks() {
		if b >= boundary {
			log.Fatalf("block %d still allocated above the boundary", b)
		}
	}
	if err := fs.VerifyBackrefs(eng); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Println("upper range fully evacuated; back references verified against tree walk ✓")
}
