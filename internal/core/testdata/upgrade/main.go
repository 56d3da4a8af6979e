// Command upgrade brings a store that holds a format this binary refuses
// (run format 2, log format 3) to formats it reads: built in a tree that
// still reads them, it opens the store, takes a checkpoint, which retires
// the log, runs a maintenance pass, which rewrites every run of an older
// format at its level, and closes the store. It uses only the public API,
// so it builds in a tree exported at such a commit, as writefixture does:
//
//	git archive 0ea923b | tar -x -C /tmp/0ea923b
//	mkdir /tmp/0ea923b/cmd/upgrade
//	cp internal/core/testdata/upgrade/main.go /tmp/0ea923b/cmd/upgrade/
//	cd /tmp/0ea923b && GOPROXY=off go run ./cmd/upgrade -dir STORE -durability buffered
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
