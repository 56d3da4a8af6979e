package core

import (
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
// 100 000 records. An AddRef into the active tree allocates its tree node
// and nothing else.
func TestWriteStoreAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		records     = 100_000
		flushBudget = 0.05
		addBudget   = 1
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

	block := uint64(records)
	add := testing.AllocsPerRun(1000, func() {
		env.eng.AddRef(ref(block, 1, 0, 0), 2)
		block++
	})
	t.Logf("AddRef: %.2f allocations", add)
	if add > addBudget {
		t.Errorf("an AddRef allocated %.2f times, budget %d", add, addBudget)
	}
}
