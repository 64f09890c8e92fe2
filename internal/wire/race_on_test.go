//go:build race

package wire

// raceEnabled reports whether the race detector is instrumenting this test
// binary. Allocation-count assertions are skipped under it: the detector
// makes sync.Pool drop buffers at random, and its bookkeeping allocates on
// paths that are allocation-free in a normal build.
const raceEnabled = true
