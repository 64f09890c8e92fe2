package runner

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkRunner measures orchestration overhead per cell: a 8-job × 8-run
// matrix of near-free cells, so the cost is scheduling, aggregation,
// and locking rather than simulation work.
func BenchmarkRunner(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), testJobs(8, 8, 4), Options{Workers: workers, BaseSeed: 42}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggAdd measures the streaming aggregation path alone.
func BenchmarkAggAdd(b *testing.B) {
	sum, err := mathCell(20)(context.Background(), 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAgg()
		for r := 0; r < 16; r++ {
			if err := a.Add(r, sum); err != nil {
				b.Fatal(err)
			}
		}
	}
}
