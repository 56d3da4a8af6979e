// Command replay runs a script of store operations through the public API
// and writes what the store then answers. The cross-version test
// (internal/core/xversion_test.go) builds it at each commit of its table,
// as writefixture is built, so it uses only what the public API of every
// such commit has:
//
//	git archive C | tar -x -C /tmp/C
//	mkdir /tmp/C/cmd/replay
//	cp internal/core/testdata/replay/main.go /tmp/C/cmd/replay/
//	cd /tmp/C && GOPROXY=off go build -o /tmp/replay-C ./cmd/replay
//
// With -ops it opens the store in -dir and applies the script, one
// operation a line:
//
//	add BLOCK INODE OFFSET LINE LENGTH CP       AddRef
//	remove BLOCK INODE OFFSET LINE LENGTH CP    RemoveRef
//	relocate FROM TO                            RelocateBlock
//	snapshot LINE V                             Catalog().CreateSnapshot
//	unsnapshot LINE V                           Catalog().DeleteSnapshot
//	clone LINE PARENT BASE                      Catalog().CreateClone
//	dropline LINE                               Catalog().DeleteLine
//	checkpoint CP                               Checkpoint
//	compact, maintain, expire                   Compact, Maintain, Expire
//	reopen                                      Close, then Open
//	exit                                        the process exits, no Close
//
// Then, or at once without -ops, it writes the answers to -answers and
// closes the store: for every block below -blocks, one line per owner Query
// returns — block, inode, offset, line, length, from, to, versions —
// sorted, as writefixture's answers are. An Open that fails prints its
// error and exits with status 3; any other failure exits with status 1.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/backlogfs/backlog"
)

func main() {
	dir := flag.String("dir", "", "the store's directory")
	durability := flag.String("durability", "buffered", "checkpoint-only, buffered or sync")
	ops := flag.String("ops", "", "the script to apply; none to only read the store")
	answers := flag.String("answers", "", "file to write the answers into")
	blocks := flag.Uint64("blocks", 32, "answer every block below this")
	flag.Parse()
	d, err := backlog.ParseDurability(*durability)
	if err != nil {
		log.Fatal(err)
	}
	cfg := backlog.Config{Dir: *dir, Durability: d}
	open := func() *backlog.DB {
		db, err := backlog.Open(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(3)
		}
		return db
	}
	db := open()
	if *ops != "" {
		f, err := os.Open(*ops)
		if err != nil {
			log.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if db = apply(db, strings.Fields(sc.Text()), open); db == nil {
				os.Exit(0)
			}
		}
		if err := sc.Err(); err != nil {
			log.Fatal(err)
		}
	}
	var sb strings.Builder
	for b := uint64(0); b < *blocks; b++ {
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

// apply applies one operation of the script and returns the open store,
// or nil when the operation is exit.
func apply(db *backlog.DB, f []string, open func() *backlog.DB) *backlog.DB {
	if len(f) == 0 {
		return db
	}
	n := make([]uint64, len(f)-1)
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			log.Fatalf("%q: %v", strings.Join(f, " "), err)
		}
		n[i] = v
	}
	arg := func(i int) uint64 {
		if i >= len(n) {
			log.Fatalf("%q: too few operands", strings.Join(f, " "))
		}
		return n[i]
	}
	ref := func() backlog.Ref {
		return backlog.Ref{Block: arg(0), Inode: arg(1), Offset: arg(2), Line: arg(3), Length: arg(4)}
	}
	var err error
	switch f[0] {
	case "add":
		db.AddRef(ref(), arg(5))
	case "remove":
		db.RemoveRef(ref(), arg(5))
	case "relocate":
		err = db.RelocateBlock(arg(0), arg(1))
	case "snapshot":
		err = db.Catalog().CreateSnapshot(arg(0), arg(1))
	case "unsnapshot":
		err = db.Catalog().DeleteSnapshot(arg(0), arg(1))
	case "clone":
		err = db.Catalog().CreateClone(arg(0), arg(1), arg(2))
	case "dropline":
		err = db.Catalog().DeleteLine(arg(0))
	case "checkpoint":
		err = db.Checkpoint(arg(0))
	case "compact":
		err = db.Compact()
	case "maintain":
		err = db.Maintain()
	case "expire":
		_, err = db.Expire()
	case "reopen":
		if err := db.Close(); err != nil {
			log.Fatal(err)
		}
		return open()
	case "exit":
		return nil
	default:
		log.Fatalf("unknown operation %q", f[0])
	}
	if err != nil {
		log.Fatalf("%q: %v", strings.Join(f, " "), err)
	}
	return db
}
