package soc

import (
	"testing"

	"tiledcfd/internal/fixed"
)

func benchBand(b *testing.B, blocks int) []fixed.Complex {
	b.Helper()
	return socSamples(9, 256*blocks)
}

// BenchmarkPlatformRunBlock times one integration step on the paper's
// 4-tile platform with the concurrent (goroutine-per-tile) engine.
func BenchmarkPlatformRunBlock(b *testing.B) {
	x := benchBand(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(Config{K: 256, M: 64, Q: 4, Blocks: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.Run(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlatformRunSyncBlock times the lockstep reference engine on
// the same workload.
func BenchmarkPlatformRunSyncBlock(b *testing.B) {
	x := benchBand(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(Config{K: 256, M: 64, Q: 4, Blocks: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.RunSync(x); err != nil {
			b.Fatal(err)
		}
	}
}
