package core

// CompactRetries exposes the optimistic-attempt budget to the external
// (core_test) merge tests, which assert the exact conflict count.
const CompactRetries = compactRetries

// CompactTiered is Compact in CP-tiered mode on an engine of any retention
// policy: expire_test.go and policy_test.go seal runs on RetainAll engines
// with it.
func (e *Engine) CompactTiered() error { return e.compactAll(true) }
