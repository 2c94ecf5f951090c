package core

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
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
// buys once rank queries miss cache. The 16M index has no prefix table, so
// a read there ranks about 22 steps before its interval is small enough to
// finish on the text, where a k = 10 table leaves about 2.4 (the chr21
// benchmark workload): a gain measured on 16M prices other traffic than the
// served one. 16M/located is that workload's shape on one worker: the same
// index with the k = 10 table attached and the reads located, at 0
// allocs/op. The EColi arms are the served shape: a 4.6 Mbp E. coli-like
// reference with the k = 10 table, 8 192 reads of 100 bp, three in four
// planted in either orientation, located (MapOptions.Locate), on the full
// suffix array and on one sampled at rate 8 as every served index is; both
// at 0 allocs/op.
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

	located := func(b *testing.B, ix *Index, seqs []dna.Seq) {
		dst := make([]MapResult, len(seqs))
		opts := MapOptions{Workers: 1, Locate: true}
		if _, err := ix.MapReadsInto(dst, seqs, opts); err != nil {
			b.Fatal(err) // and size every result's positions
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.MapReadsInto(dst, seqs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(seqs))/b.Elapsed().Seconds(), "reads/s")
	}
	batch := func(b *testing.B, ix *Index, seqs []dna.Seq) {
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
	}
	b.Run("16M/batch", func(b *testing.B) {
		ix, seqs := bench16M(b)
		batch(b, ix, seqs)
	})
	b.Run("16M/batch-ranked", func(b *testing.B) {
		// The same reads with the text detached: every search ranks to the
		// end, as the paper's does.
		ix, seqs := bench16M(b)
		text := ix.fm.Text()
		ix.DropText()
		b.Cleanup(func() {
			if err := ix.fm.SetText(text); err != nil {
				b.Error(err)
			}
		})
		batch(b, ix, seqs)
	})
	b.Run("16M/located", func(b *testing.B) {
		// The exact-chr21 shape: the same reads located, through the k = 10
		// table, which the other 16M rungs run without.
		ix, seqs := bench16M(b)
		if err := ix.EnsureFtab(DefaultFtabK); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			if err := ix.EnsureFtab(0); err != nil {
				b.Error(err)
			}
		})
		located(b, ix, seqs)
	})
	for _, arm := range []string{"full", "sampled-8"} {
		b.Run("EColi/"+arm, func(b *testing.B) {
			in, err := locateBenchEColi()
			if err != nil {
				b.Fatal(err)
			}
			ix := in.full
			if arm == "sampled-8" {
				ix = in.sampled
			}
			located(b, ix, in.reads)
		})
	}
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

// locateInputs is one reference indexed with the full suffix array and
// with a sampled one, and reads on it.
type locateInputs struct {
	full, sampled *Index
	reads         []dna.Seq
}

// locateBenchEColi builds, once per test binary, BenchmarkMapReads' EColi
// inputs: an E. coli-like reference indexed with the full suffix array and
// with one sampled at rate 8, both with the k = 10 table, and 8 192 reads.
var locateBenchEColi = sync.OnceValues(func() (in locateInputs, err error) {
	genome, err := readsim.EColiLike(1, 1)
	if err != nil {
		return in, err
	}
	reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: 8192, Length: 100, MappingRatio: 0.75, RevCompFraction: 0.5, Seed: 5,
	})
	if err != nil {
		return in, err
	}
	in.reads = readsim.Seqs(reads)
	if in.full, err = BuildIndex(genome, IndexConfig{FtabK: DefaultFtabK}); err != nil {
		return in, err
	}
	in.sampled, err = BuildIndex(genome, IndexConfig{FtabK: DefaultFtabK, Locate: LocateSampled, SampleRate: 8})
	return in, err
})

// BenchmarkMapReadsApprox times the k-mismatch batch engine on one worker
// at budgets 1 and 2: 4 096 reads of 100 bp, three in four mapping exactly,
// on an E. coli-like 4.6 Mbp reference with the default k = 10 prefix table
// (built once per test binary). Pass 1 searches each chunk's exact patterns
// as one group; the quarter that misses goes through the branching search.
// That quarter is random and rescues nothing, except in k=2/rescue, where
// it is reference substrings with one or two substitutions.
func BenchmarkMapReadsApprox(b *testing.B) {
	in, err := approxBenchEColi()
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]ApproxResult, len(in.reads))
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			// One full batch first, so the timed batches find the scratch
			// and the results grown.
			if err := in.ix.MapReadsApproxFtab(dst, in.reads, k, MapOptions{Workers: 1}, true); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.ix.MapReadsApproxFtab(dst, in.reads, k, MapOptions{Workers: 1}, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(in.reads))/b.Elapsed().Seconds(), "reads/s")
		})
	}
	// The served shape: exact hits located, each batch into the previous
	// one's results, the first of them before the timer.
	b.Run("k=1/located", func(b *testing.B) {
		if err := in.ix.MapReadsApproxFtab(dst, in.reads, 1, MapOptions{Workers: 1, Locate: true}, true); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := in.ix.MapReadsApproxFtab(dst, in.reads, 1, MapOptions{Workers: 1, Locate: true}, true); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(in.reads))/b.Elapsed().Seconds(), "reads/s")
	})
	// Pass 2 rescuing every read it runs on, each batch into the previous
	// one's results, whose strata it reuses.
	b.Run("k=2/rescue", func(b *testing.B) {
		if err := in.ix.MapReadsApproxFtab(dst, in.rescue, 2, MapOptions{Workers: 1}, true); err != nil {
			b.Fatal(err)
		}
		rescued := 0
		for _, r := range dst {
			if !r.Exact.Mapped() && r.Mapped() {
				rescued++
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := in.ix.MapReadsApproxFtab(dst, in.rescue, 2, MapOptions{Workers: 1}, true); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(in.rescue))/b.Elapsed().Seconds(), "reads/s")
		b.ReportMetric(float64(rescued), "rescued/op")
	})
}

// approxInputs are the k-mismatch rung's index and reads, and rescue: the
// same reads with each random one replaced by a reference substring that
// carries one or two substitutions.
type approxInputs struct {
	mapInputs
	rescue []dna.Seq
}

var approxBenchEColi = sync.OnceValues(func() (approxInputs, error) {
	genome, err := readsim.EColiLike(1, 1)
	if err != nil {
		return approxInputs{}, err
	}
	sim, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: 4096, Length: 100, MappingRatio: 0.75, RevCompFraction: 0.5, Seed: 4,
	})
	if err != nil {
		return approxInputs{}, err
	}
	reads := readsim.Seqs(sim)
	rescue := slices.Clone(reads)
	rng := rand.New(rand.NewSource(5))
	for i, r := range sim {
		if r.Origin >= 0 {
			continue
		}
		at := rng.Intn(len(genome) - len(r.Seq))
		read := genome[at : at+len(r.Seq)].Clone()
		for range 1 + rng.Intn(2) {
			j := rng.Intn(len(read))
			read[j] = (read[j] + dna.Base(1+rng.Intn(3))) % 4
		}
		rescue[i] = read
	}
	ix, err := BuildIndex(genome, IndexConfig{FtabK: DefaultFtabK})
	return approxInputs{mapInputs{ix: ix, reads: reads}, rescue}, err
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
		n, err := ix.writeTo(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
	}
}
