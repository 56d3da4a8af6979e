package bloom

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenKeys is the fixed key set of the filter goldens under testdata (lsm
// restates it):
// n ascending block numbers.
func goldenKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*17 + uint64(i*i)%11
	}
	return keys
}

// filterGoldens are the filters a run of keys distinct blocks, each in
// perKey records, carries: testdata/blf1-<keys>keys.filter in a raw run,
// written before BLF2 existed, and testdata/blf2-<keys>keys.filter in a
// delta run, written by the first BLF2 encoder, which a delta run still
// writes where no exact set is smaller (the one key). The exact sets of
// the same keys, testdata/bls1-bitmap-<keys>keys.filter and
// bls1-ef-<keys>keys.filter, were written by the first BLS1 encoder, and a
// delta run of 300 or 5 000 keys carries the Elias–Fano one. The run
// builder must keep writing them (lsm's TestRunsWriteTheFilterGoldens);
// never regenerate them.
var filterGoldens = []struct{ keys, perKey int }{{1, 3}, {300, 4}, {5000, 2}}

func goldenPath(encoding string, keys int) string {
	return filepath.Join("testdata", fmt.Sprintf("%s-%dkeys.filter", encoding, keys))
}

// TestFilterGoldensPinned: the paper's sizing of a raw run's BLF1 — a power
// of two for the records the run expects, halved while its keys keep the
// 2.4 % target — a delta run's BLF2 of one byte a key, and the exact set of
// the keys in either layout give the golden bytes, and each golden decodes
// to a filter that holds every key.
func TestFilterGoldensPinned(t *testing.T) {
	for _, g := range filterGoldens {
		keys := goldenKeys(g.keys)
		for encoding, f := range map[string]*Filter{
			"blf1":        NewPow2(Pow2Bytes(g.keys, g.keys*g.perKey, 0), DefaultHashes),
			"blf2":        New(g.keys, DefaultHashes),
			"bls1-bitmap": setOf(layoutBitmap, keys),
			"bls1-ef":     setOf(layoutEliasFano, keys),
		} {
			want, err := os.ReadFile(goldenPath(encoding, g.keys))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, exact := f.Range(); !exact {
				for _, k := range keys {
					f.Add(k)
				}
			}
			decoded, err := Unmarshal(want)
			if err != nil {
				t.Fatalf("%s, %d keys: %v", encoding, g.keys, err)
			}
			for _, k := range keys {
				if !decoded.MayContain(k) {
					t.Fatalf("%s, %d keys: the golden does not hold %d", encoding, g.keys, k)
				}
			}
			if got := f.Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("%s, %d keys: %d bytes, want the golden's %d", encoding, g.keys, len(got), len(want))
			}
		}
	}
}
