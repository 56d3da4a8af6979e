package core

// CompactRetries exposes the optimistic-attempt budget to the external
// (core_test) merge tests, which assert the exact conflict count.
const CompactRetries = compactRetries
