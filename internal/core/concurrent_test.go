package core

import "testing"

// TestCheckpointFlushOneRunPerTablePartition keeps the shard count from
// coming back as a run multiplier: with records of two tables in every one
// of eight shards, a checkpoint writes one run per table and partition.
func TestCheckpointFlushOneRunPerTablePartition(t *testing.T) {
	const shards, partitions, blocks = 8, 4, 1024
	env := newTestEnv(t, Options{WriteShards: shards, Partitions: partitions, PartitionSpan: blocks / partitions})
	for b := uint64(0); b < blocks; b++ {
		env.eng.AddRef(ref(b, 1, 0, 0), 1)
		env.eng.RemoveRef(ref(b, 2, 0, 0), 1) // a To record needs no AddRef before it
	}
	for i, s := range env.eng.shards {
		if s.active[iFrom].Len() == 0 || s.active[iTo].Len() == 0 {
			t.Fatalf("shard %d holds %d From and %d To records; the guard needs both in every shard",
				i, s.active[iFrom].Len(), s.active[iTo].Len())
		}
	}
	mustCheckpoint(t, env.eng, 1)
	if n := env.eng.RunCount(); n != 2*partitions {
		t.Fatalf("%d runs after one checkpoint of two tables over %d partitions, want %d: %+v",
			n, partitions, 2*partitions, env.eng.RunInfos())
	}
}
