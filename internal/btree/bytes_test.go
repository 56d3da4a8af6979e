package btree

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/backlogfs/backlog/internal/storage"
)

// ingestStream builds the runs of an ingest-shaped workload without the
// engine: four checkpoints of 32 000 updates each, 40 % of them removals of
// a random live reference, the rest references of 64-block files on line 0
// whose blocks are drawn Zipf 0.5 over 2^18 blocks and scrambled. A
// reference removed in the CP that added it cancels (proactive pruning).
// It returns the From and To runs' records, one sorted list per checkpoint,
// and the Combined records a whole merge of the four would keep if a
// snapshot retained every CP: each reference added in one CP and removed in
// a later one as its interval [from, to).
func ingestStream() (from, to [][][]byte, combined [][]byte) {
	const (
		cps     = 4
		perCP   = 32000
		nBlocks = 1 << 18
		theta   = 0.5
	)
	var rnd uint64 = 1
	next := func() uint64 { // splitmix64
		rnd += 0x9E3779B97F4A7C15
		z := rnd
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	float := func() float64 { return float64(next()>>11) / (1 << 53) }
	// Zipf ranks by Gray et al.'s method, as YCSB draws them.
	var zetan float64
	for i := 1; i <= nBlocks; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	second := math.Pow(0.5, theta)
	alpha := 1 / (1 - theta)
	eta := (1 - math.Pow(2.0/nBlocks, 1-theta)) / (1 - (1+second)/zetan)
	mul, off := next()|1, next()
	block := func() uint64 {
		u := float()
		var r uint64
		switch uz := u * zetan; {
		case uz < 1:
		case uz < 1+second:
			r = 1
		default:
			r = min(uint64(nBlocks*math.Pow(eta*u-eta+1, alpha)), nBlocks-1)
		}
		return (r*mul + off) & (nBlocks - 1)
	}

	type ref struct{ block, inode, offset, added uint64 }
	record := func(r ref, cols ...uint64) []byte {
		b := make([]byte, 0, 56)
		for _, v := range append([]uint64{r.block, r.inode, r.offset, 0, 1}, cols...) {
			b = binary.BigEndian.AppendUint64(b, v)
		}
		return b
	}
	var live []*ref
	var seq uint64
	for cp := uint64(1); cp <= cps; cp++ {
		var froms, tos [][]byte
		var added []*ref
		for range perCP {
			if len(live) > 0 && float() < 0.4 {
				j := int(float() * float64(len(live)))
				r := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if r.added < cp {
					tos = append(tos, record(*r, cp))
					combined = append(combined, record(*r, r.added, cp))
				} else {
					r.added = 0 // cancelled within its CP
				}
				continue
			}
			r := &ref{block: block(), inode: 1 + seq>>6, offset: seq & 63, added: cp}
			seq++
			live = append(live, r)
			added = append(added, r)
		}
		for _, r := range added {
			if r.added == cp {
				froms = append(froms, record(*r, cp))
			}
		}
		from, to = append(from, sortRecords(froms)), append(to, sortRecords(tos))
	}
	return from, to, sortRecords(combined)
}

func sortRecords(recs [][]byte) [][]byte {
	slices.SortFunc(recs, bytes.Compare)
	return recs
}

// leafBytesPerRecord writes each list as a run of format and returns the
// bytes of their leaf pages per record.
func leafBytesPerRecord(t testing.TB, format Format, lists ...[][]byte) float64 {
	var pages, records uint64
	for _, recs := range lists {
		if len(recs) == 0 {
			continue
		}
		r, err := Open(buildRunFormat(t, storage.NewMemFS(), "run", len(recs[0]), format, recs), nil)
		if err != nil {
			t.Fatal(err)
		}
		pages += r.h.LeafPages
		records += r.h.Records
	}
	return float64(pages*storage.PageSize) / float64(records)
}

// TestLeafBytesPerRecord is the byte gate of the packed leaf: on the
// ingest-shaped stream each table's leaves must take at most 0.70 of the
// bytes per record the v3 encoder spent on the same records, which are
// constants here because that encoder is gone (measured with the v3 writer
// of the last tree that had it).
func TestLeafBytesPerRecord(t *testing.T) {
	from, to, combined := ingestStream()
	for _, c := range []struct {
		table string
		runs  [][][]byte
		v3    float64
	}{
		{"from", from, 4.757},
		{"to", to, 5.214},
		{"combined", [][][]byte{combined}, 6.217},
	} {
		got := leafBytesPerRecord(t, FormatDelta, c.runs...)
		t.Logf("%s: %.3f leaf bytes per record, v3 %.3f (%.3fx)", c.table, got, c.v3, got/c.v3)
		if got > 0.70*c.v3 {
			t.Errorf("%s: %.3f leaf bytes per record, want <= 0.70 x v3's %.3f", c.table, got, c.v3)
		}
	}
}
