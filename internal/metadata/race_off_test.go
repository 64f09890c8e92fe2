//go:build !race

package metadata

const raceEnabled = false
