package core

import (
	"math/rand"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in a -race build, whose detector
// allocates on its own.
var raceEnabled bool

// allocsDuring returns the heap allocations f makes, counted as
// testing.AllocsPerRun counts them: from the runtime's malloc total, at one
// P. Goroutines f starts count too.
func allocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWriteStoreAllocationBudget holds the write store to its allocation
// budget. A checkpoint flush allocates at most 0.05 times per record it
// flushes: the write store hands the run builders its records as they are,
// and what a flush allocates per file, page and commit is spread over
// 100 000 records. An AddRef allocates at most 0.05 times too, on ascending
// blocks and on random ones: it stores its record in a leaf of the active
// tree, and only a new leaf or a longer leaf directory allocates.
func TestWriteStoreAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		records     = 100_000
		flushBudget = 0.05
		addBudget   = 0.05
	)
	env := newTestEnv(t, Options{WriteShards: 2})
	defer env.eng.Close()
	for b := range uint64(records) {
		env.eng.AddRef(ref(b, 1, 0, 0), 1)
	}
	flush := float64(allocsDuring(func() { mustCheckpoint(t, env.eng, 1) })) / records
	t.Logf("checkpoint flush: %.3f allocations per record", flush)
	if flush > flushBudget {
		t.Errorf("a checkpoint flush allocated %.3f times per record, budget %.2f", flush, flushBudget)
	}

	random := rand.New(rand.NewSource(1)).Perm(records)
	for i, c := range []struct {
		name  string
		block func(i int) uint64
	}{
		{"ascending", func(i int) uint64 { return records + uint64(i) }},
		{"random", func(i int) uint64 { return 2*records + uint64(random[i]) }},
	} {
		cp := uint64(i + 2)
		add := float64(allocsDuring(func() {
			for j := range records {
				env.eng.AddRef(ref(c.block(j), 1, 0, 0), cp)
			}
		})) / records
		t.Logf("AddRef on %s blocks: %.3f allocations per call", c.name, add)
		if add > addBudget {
			t.Errorf("an AddRef on %s blocks allocated %.3f times per call, budget %.2f", c.name, add, addBudget)
		}
		mustCheckpoint(t, env.eng, cp)
	}
}
