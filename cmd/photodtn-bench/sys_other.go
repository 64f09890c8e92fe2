//go:build !linux

package main

import (
	"runtime/metrics"
	"time"
)

// maxRSSBytes approximates the resident-set high-water mark with the
// runtime's current mapped memory; only Linux reports the real one here.
func maxRSSBytes() int64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// cpuTime is not measured outside Linux.
func cpuTime() time.Duration { return 0 }

func fsType(string) string { return "unknown" }

func cpuModel() string { return "unknown" }
