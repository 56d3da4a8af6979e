package core

// CacheBytes is the bytes charged to the engine's page cache, for the
// external tests of what written-through pages do when a commit fails.
func (e *Engine) CacheBytes() int64 { return e.cache.SizeBytes() }

// CompactTiered is Compact in CP-tiered mode on an engine of any retention
// policy: expire_test.go and policy_test.go seal runs on RetainAll engines
// with it.
func (e *Engine) CompactTiered() error { return e.compactAll(true) }

// CompactJobTiered runs one merge job in CP-tiered mode, as the maintainer
// does under RetainLive, on an engine of any retention policy:
// mergefile_test.go lays out a tiered stepped merge's files with it.
func (e *Engine) CompactJobTiered(job CompactionJob) (bool, error) { return e.compactJob(job, true) }
