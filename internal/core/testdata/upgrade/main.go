// Command upgrade brings a store that holds a format this binary refuses
// to formats it reads: built in a tree that still reads them, it opens the
// store, takes a checkpoint, which retires the log and writes the commit as
// a trailer, runs a maintenance pass, which rewrites every run of an older
// format at its level, and closes the store. It uses only the public API,
// so it builds in a tree exported at such a commit, as writefixture does.
// Each commit below reads what the one before it writes, so a store goes
// through them in turn, from the first that reads it:
//
//   - 0ea923b: run format 2 and log format 3 (to run format 4, log format
//     5);
//   - 8d5575c: run formats 3 and 4, log format 4, a legacy MANIFEST, a
//     commit whose runs carry no header, and deletion-vector version 1 (to
//     run format 6, the commit trailer of commit format 4,
//     deletion-vector version 2 and log format 5, which the current
//     binary reads; its first checkpoint retires the log and its first
//     commit writes commit format 5).
//
// For each commit C of the chain:
//
//	git archive C | tar -x -C /tmp/C
//	mkdir /tmp/C/cmd/upgrade
//	cp internal/core/testdata/upgrade/main.go /tmp/C/cmd/upgrade/
//	cd /tmp/C && GOPROXY=off go run ./cmd/upgrade -dir STORE -durability buffered
//
// -durability must be buffered or sync for a store that holds a log, so
// that Open replays it; -partitions and -span must be what the store was
// written with.
package main

import (
	"flag"
	"log"

	"github.com/backlogfs/backlog"
)

func main() {
	dir := flag.String("dir", "", "the store to upgrade")
	durability := flag.String("durability", "buffered", "checkpoint-only, buffered or sync")
	partitions := flag.Int("partitions", 1, "the store's partitions")
	span := flag.Uint64("span", 0, "blocks per partition (required when -partitions > 1)")
	flag.Parse()
	d, err := backlog.ParseDurability(*durability)
	if err != nil {
		log.Fatal(err)
	}
	db, err := backlog.Open(backlog.Config{Dir: *dir, Durability: d, Partitions: *partitions, PartitionSpan: *span})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Checkpoint(db.CP() + 1); err != nil {
		log.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
}
