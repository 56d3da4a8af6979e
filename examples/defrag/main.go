// Share-aware defragmentation — the paper's motivating use case
// (Section 3).
//
// Two virtual-machine images are cloned from a master snapshot, so they
// share most blocks. Defragmenting one image without knowing about the
// sharing would "ping-pong" the shared blocks between the two files. With
// back references, the defragmenter can see every owner of each block and
// decide: relocate blocks owned only by the target file, and leave (or
// deliberately duplicate) the shared ones.
//
// The example builds the scenario on the fsim write-anywhere simulator
// wired to a real Backlog engine, then queries the owners of the fragmented
// file's whole block span in one range query, and relocates the
// exclusively-owned blocks into a contiguous region, updating the
// back-reference database with RelocateBlock. It finishes by re-verifying
// the whole database against a file system tree walk.
//
// Run with:
//
//	go run ./examples/defrag
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
	fs := fsim.New(fsim.Config{Tracker: eng, Catalog: cat, Seed: 7})

	// Build the master VM image: one file of 64 blocks on line 0.
	master, err := fs.CreateFile(0)
	if err != nil {
		log.Fatal(err)
	}
	if err := fs.WriteFile(0, master, 0, 64); err != nil {
		log.Fatal(err)
	}
	snapVer, err := fs.TakeSnapshot(0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fs.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// Clone the golden snapshot twice: two tenant VMs sharing all blocks.
	vmA, err := fs.Clone(0, snapVer)
	if err != nil {
		log.Fatal(err)
	}
	vmB, err := fs.Clone(0, snapVer)
	if err != nil {
		log.Fatal(err)
	}
	// Each VM dirties a different part of its image (COW), fragmenting
	// vmA's on-disk layout: its file is now a mix of old shared blocks and
	// scattered new ones.
	for off := uint64(0); off < 64; off += 4 {
		if err := fs.WriteFile(vmA, master, off, 1); err != nil {
			log.Fatal(err)
		}
	}
	for off := uint64(2); off < 64; off += 8 {
		if err := fs.WriteFile(vmB, master, off, 1); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := fs.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// --- Defragment vmA's file, share-aware. ---
	line, _ := fs.Line(vmA)
	blocks := line.Live.BlocksOf(master)
	lo, hi := minOf(blocks), maxOf(blocks)
	fmt.Printf("vmA file spans blocks %d..%d before defrag\n", lo, hi)

	// One range query over the file's span answers every block of it; the
	// file's own blocks are picked out of the answer.
	owners := map[uint64][]core.Owner{}
	if err := eng.QueryRange(lo, int(hi-lo+1), func(b uint64, o []core.Owner) bool {
		owners[b] = o
		return true
	}); err != nil {
		log.Fatal(err)
	}

	// The new contiguous region starts past every allocated block.
	target := fs.MaxBlock()
	moved, shared := 0, 0
	for _, b := range blocks {
		exclusive := true
		for _, o := range owners[b] {
			if o.Line != vmA {
				exclusive = false
				break
			}
		}
		if !exclusive {
			// Shared with the master snapshot or vmB: moving it would
			// require updating their trees too; this defragmenter leaves
			// shared blocks in place (the paper's "prioritize" policy).
			shared++
			continue
		}
		// Physically move the block: rewrite the file-system pointers,
		// then transplant the back references.
		newBlock := target
		target++
		fs.RelocateBlock(b, newBlock)
		if err := eng.RelocateBlock(b, newBlock); err != nil {
			log.Fatal(err)
		}
		moved++
	}
	if _, err := fs.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("defrag: moved %d exclusively-owned blocks into a contiguous region, left %d shared blocks\n",
		moved, shared)

	// The database still matches a full tree walk.
	if err := fs.VerifyBackrefs(eng); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Println("back-reference database verified against full tree walk ✓")
}

func minOf(s []uint64) uint64 {
	m := s[0]
	for _, v := range s {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(s []uint64) uint64 {
	m := s[0]
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}
