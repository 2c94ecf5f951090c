package wavelet

import (
	"math/rand"
	"testing"

	"bwaver/internal/rrr"
)

// benchData builds BWT-like run-structured symbols.
func benchData(n int) []uint8 {
	rng := rand.New(rand.NewSource(1))
	out := make([]uint8, n)
	for i := 0; i < n; {
		sym := uint8(rng.Intn(4))
		runLen := 1 + rng.Intn(60)
		for j := 0; j < runLen && i < n; j++ {
			out[i] = sym
			i++
		}
	}
	return out
}

func BenchmarkTreeRank(b *testing.B) {
	data := benchData(1 << 20)
	for _, be := range []struct {
		name string
		p    rrr.Params
	}{
		{"rrr-sf50", rrr.Params{BlockSize: 15, SuperblockFactor: 50}},
		{"rrr-sf200", rrr.Params{BlockSize: 15, SuperblockFactor: 200}},
	} {
		tree, err := New(data, 4, be.p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(be.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(tree.SizeBytes())/1e6, "MB")
			for i := 0; i < b.N; i++ {
				tree.Rank(uint8(i&3), (i*7919)%(tree.Len()+1))
			}
		})
	}
}

func BenchmarkTreeBuild(b *testing.B) {
	data := benchData(1 << 18)
	b.Run("rrr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := New(data, 4, rrr.DefaultParams); err != nil {
				b.Fatal(err)
			}
		}
	})
}
