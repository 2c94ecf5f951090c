package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/readsim"
)

func benchInputs(b *testing.B) (ref []readsim.Read, ix *Index) {
	b.Helper()
	genome, err := readsim.EColiLike(1, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: 5000, Length: 100, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	index, err := BuildIndex(genome, IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return reads, index
}

// BenchmarkBuildIndex builds a 1 Mbp chr21-like index without and with the
// default prefix table and reports construction bytes per base beside B/op,
// the figure TestConstructionAllocationBudget bounds: 5.56 and 9.63 (13.82
// while the table held intervals).
func BenchmarkBuildIndex(b *testing.B) {
	genome, err := readsim.Chr21Like(1, 1e6/40088619.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{0, DefaultFtabK} {
		b.Run(fmt.Sprintf("ftab%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(genome)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if _, err := BuildIndex(genome, IndexConfig{FtabK: k}); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*len(genome)), "B/base")
		})
	}
}

func BenchmarkMapRead(b *testing.B) {
	reads, ix := benchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.MapRead(reads[i%len(reads)].Seq)
	}
}

// BenchmarkMapReads is the ftab acceptance benchmark: the batched
// zero-allocation pipeline over short Table I-style reads, with and without
// the prefix table. The k=10 arm should beat k=0 by well over 1.5x at
// 0 allocs/read. The 16M arms map 100 bp reads on a 16 Mbp chr21-like
// reference whose rank structure, about 4.6 MB, spills out of a 2 MiB L2:
// 16M/batch through MapReadsInto, whose chunks search in lock step, at
// 0 allocs/op, and 16M/read-loop the same reads through MapRead one at a
// time — the gap between them is what keeping a chunk's searches in flight
// buys once rank queries miss cache.
func BenchmarkMapReads(b *testing.B) {
	genome, err := readsim.EColiLike(1, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: 5000, Length: 35, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := BuildIndex(genome, IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	seqs := readsim.Seqs(reads)
	dst := make([]MapResult, len(seqs))
	for _, k := range []int{0, 10} {
		if err := ix.EnsureFtab(k); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ftab-k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.MapReadsInto(dst, seqs, MapOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(seqs))/b.Elapsed().Seconds(), "reads/s")
		})
	}

	b.Run("16M/batch", func(b *testing.B) {
		ix, seqs := bench16M(b)
		dst := make([]MapResult, len(seqs))
		if _, err := ix.MapReadsInto(dst, seqs, MapOptions{Workers: 1}); err != nil {
			b.Fatal(err) // and warm the scratch pool
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.MapReadsInto(dst, seqs, MapOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(seqs))/b.Elapsed().Seconds(), "reads/s")
	})
	b.Run("16M/read-loop", func(b *testing.B) {
		ix, seqs := bench16M(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, read := range seqs {
				benchSteps += ix.MapRead(read).Steps
			}
		}
		b.ReportMetric(float64(b.N*len(seqs))/b.Elapsed().Seconds(), "reads/s")
	})
}

// bench16M builds, once per test binary, the default index over 16 Mbp of
// chr21-like sequence and 8 192 simulated 100 bp reads on it, three in four
// of them mapping, as in the exact benchmark workloads.
func bench16M(b *testing.B) (*Index, []dna.Seq) {
	b.Helper()
	in, err := build16M()
	if err != nil {
		b.Fatal(err)
	}
	return in.ix, in.reads
}

// benchSteps keeps the read loop's results live.
var benchSteps int

type mapInputs struct {
	ix    *Index
	reads []dna.Seq
}

var build16M = sync.OnceValues(func() (mapInputs, error) {
	genome, err := readsim.Chr21Like(1, 16e6/readsim.Chr21Length)
	if err != nil {
		return mapInputs{}, err
	}
	reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: 8192, Length: 100, MappingRatio: 0.75, RevCompFraction: 0.5, Seed: 3,
	})
	if err != nil {
		return mapInputs{}, err
	}
	ix, err := BuildIndex(genome, IndexConfig{})
	return mapInputs{ix: ix, reads: readsim.Seqs(reads)}, err
})

// BenchmarkMapReadsApprox times the k-mismatch batch engine on one worker
// at budgets 1 and 2: 4 096 reads of 100 bp, three in four mapping exactly,
// on an E. coli-like 4.6 Mbp reference with the default k = 10 prefix table
// (built once per test binary). Pass 1 searches each chunk's exact patterns
// as one group; the quarter that misses goes through the branching search.
func BenchmarkMapReadsApprox(b *testing.B) {
	in, err := approxBenchEColi()
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]ApproxResult, len(in.reads))
	// One chunk first, so the timed batches find the scratch grown.
	if err := in.ix.MapReadsApproxFtab(dst[:16], in.reads[:16], 1, MapOptions{Workers: 1}, true); err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := in.ix.MapReadsApproxFtab(dst, in.reads, k, MapOptions{Workers: 1}, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(in.reads))/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

var approxBenchEColi = sync.OnceValues(func() (mapInputs, error) {
	genome, err := readsim.EColiLike(1, 1)
	if err != nil {
		return mapInputs{}, err
	}
	reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: 4096, Length: 100, MappingRatio: 0.75, RevCompFraction: 0.5, Seed: 4,
	})
	if err != nil {
		return mapInputs{}, err
	}
	ix, err := BuildIndex(genome, IndexConfig{FtabK: DefaultFtabK})
	return mapInputs{ix: ix, reads: readsim.Seqs(reads)}, err
})

func BenchmarkMapReadsLocate(b *testing.B) {
	reads, ix := benchInputs(b)
	seqs := readsim.Seqs(reads)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.MapReads(seqs[:500], MapOptions{Locate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeIndex(b *testing.B) {
	_, ix := benchInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := ix.WriteTo(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
	}
}
