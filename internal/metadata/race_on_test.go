//go:build race

package metadata

// raceEnabled reports whether the race detector is instrumenting this test
// binary. Allocation-count assertions are skipped under it: the detector's
// shadow-memory bookkeeping allocates on paths that are allocation-free in
// a normal build.
const raceEnabled = true
