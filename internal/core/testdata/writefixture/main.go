// Command writefixture writes one of the stores under internal/core/testdata
// that earlier binaries made. It uses only the public API, so it builds in a
// tree exported at the commit that wrote the store's formats:
//
//	git archive abc326f | tar -x -C /tmp/abc326f
//	mkdir /tmp/abc326f/cmd/writefixture
//	cp internal/core/testdata/writefixture/main.go /tmp/abc326f/cmd/writefixture/
//	cd /tmp/abc326f && GOPROXY=off go run ./cmd/writefixture \
//	    -dir /tmp/v4manifest-store -durability buffered -answers /tmp/v4manifest-store.answers
//
// The history is the engine's v2StoreOps (CPs 1..7) and, when the log is
// kept, v3StoreTail (CP 8) (internal/core/format_test.go): a Checkpoint and a
// snapshot of line 0 after the updates of each of CPs 1..6, a Compact after
// Checkpoint(4), RelocateBlock(relocFrom, relocTo) just before Checkpoint(5)
// (a later update of a reference it moved names the new block), then
// Checkpoint(7). With a log, the updates of CP 8 follow and stay in it. The
// answers are written before a clean Close: for every block below 160, one
// line per owner Query returned — block, inode, offset, line, length, from,
// to, versions — sorted.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"github.com/backlogfs/backlog"
)

const (
	relocFrom = 7
	relocTo   = 157
	blocks    = 160
)

type refOp struct {
	ref    backlog.Ref
	cp     uint64
	remove bool
}

func v2StoreOps() []refOp {
	const n = 4200
	ops := make([]refOp, 0, n)
	var added []backlog.Ref
	var removed []bool
	oldest := 0
	for i := uint64(0); i < n; i++ {
		cp := 1 + i*7/n
		if i%3 == 2 {
			k := len(added) - 5
			if i%2 == 1 {
				for oldest < len(added) && removed[oldest] {
					oldest++
				}
				if k = oldest; len(added)-k < 700 {
					k = -1
				}
			}
			if k >= 0 && !removed[k] {
				removed[k] = true
				ops = append(ops, refOp{ref: added[k], cp: cp, remove: true})
				continue
			}
		}
		r := backlog.Ref{Block: i * 37 % 150, Inode: 1 + i%4, Offset: i, Length: 1 + i%2}
		added, removed = append(added, r), append(removed, false)
		ops = append(ops, refOp{ref: r, cp: cp})
	}
	return ops
}

func v3StoreTail() []refOp {
	var ops []refOp
	for i := uint64(0); i < 40; i++ {
		r := backlog.Ref{Block: i * 11 % 150, Inode: 5, Offset: 5000 + i, Length: 1}
		ops = append(ops, refOp{ref: r, cp: 8})
		if i%4 == 3 {
			ops = append(ops, refOp{ref: r, cp: 8, remove: true})
		}
	}
	removed := map[backlog.Ref]bool{}
	var added []backlog.Ref
	for _, o := range v2StoreOps() {
		if o.remove {
			removed[o.ref] = true
		} else {
			added = append(added, o.ref)
		}
	}
	closed := 0
	for _, r := range added {
		if !removed[r] && closed < 10 {
			ops = append(ops, refOp{ref: r, cp: 8, remove: true})
			closed++
		}
	}
	return ops
}

func main() {
	dir := flag.String("dir", "", "directory to write the store into")
	durability := flag.String("durability", "buffered", "checkpoint-only, buffered or sync")
	answers := flag.String("answers", "", "file to write the answers into")
	flag.Parse()
	d, err := backlog.ParseDurability(*durability)
	if err != nil {
		log.Fatal(err)
	}
	db, err := backlog.Open(backlog.Config{Dir: *dir, Durability: d})
	if err != nil {
		log.Fatal(err)
	}
	ops := v2StoreOps()
	if d != backlog.DurabilityCheckpointOnly {
		ops = append(ops, v3StoreTail()...)
	}
	moved := map[backlog.Ref]bool{}
	checkpoint := func(cp uint64) {
		if cp == 5 {
			for _, o := range ops {
				if o.cp <= 5 && o.ref.Block == relocFrom {
					moved[o.ref] = true
				}
			}
			if err := db.RelocateBlock(relocFrom, relocTo); err != nil {
				log.Fatal(err)
			}
		}
		if err := db.Checkpoint(cp); err != nil {
			log.Fatal(err)
		}
		if cp <= 6 {
			if err := db.Catalog().CreateSnapshot(0, cp); err != nil {
				log.Fatal(err)
			}
		}
		if cp == 4 {
			if err := db.Compact(); err != nil {
				log.Fatal(err)
			}
		}
	}
	for i, o := range ops {
		r := o.ref
		if moved[r] {
			r.Block = relocTo
		}
		if o.remove {
			db.RemoveRef(r, o.cp)
		} else {
			db.AddRef(r, o.cp)
		}
		if next := i + 1; o.cp <= 7 && (next == len(ops) || ops[next].cp != o.cp) {
			checkpoint(o.cp)
		}
	}
	var sb strings.Builder
	for b := uint64(0); b < blocks; b++ {
		owners, err := db.Query(b)
		if err != nil {
			log.Fatal(err)
		}
		var lines []string
		for _, o := range owners {
			lines = append(lines, fmt.Sprintf("%d %d %d %d %d %d %d %v", b, o.Inode, o.Offset, o.Line, o.Length, o.From, o.To, o.Versions))
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l + "\n")
		}
	}
	if err := os.WriteFile(*answers, []byte(sb.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
}
