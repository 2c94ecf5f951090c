// Package bwaver's root-level benchmarks regenerate every figure and table
// of the paper's evaluation (§IV) through the testing.B interface, one
// benchmark per artifact, plus the ablation benches DESIGN.md calls out.
//
// They run at a reduced scale so `go test -bench=.` terminates in minutes;
// use cmd/bwaver-bench with -ref-scale/-read-scale for larger runs and
// human-readable tables. Custom metrics carry the quantities the paper
// plots (structure MB, modeled FPGA ms, speedups).
package bwaver_test

import (
	"io"
	"testing"

	"bwaver/internal/baseline"
	"bwaver/internal/bench"
	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
	"bwaver/internal/wavelet"
)

// benchScale shrinks the paper workloads ~300x so the full suite is
// minutes, not hours.
var benchScale = bench.Scale{Ref: 0.01, Reads: 0.0005, SampleReads: 5000, Seed: 1}

// BenchmarkFig5 regenerates Fig. 5: structure size across the (b, sf) grid
// for both references. The size of the paper's hardware configuration
// (E. coli, b=15, sf=100) is reported as a custom metric.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5And6(benchScale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Ref == bench.EColi && r.B == 15 && r.SF == 100 {
				b.ReportMetric(float64(r.TotalBytes())/1e6, "ecoli-b15-sf100-MB")
				b.ReportMetric(r.Saving()*100, "saving-%")
			}
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6: structure build time across the grid.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5And6(benchScale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var minB, maxB float64
		for _, r := range rows {
			if r.Ref != bench.EColi || r.SF != 50 {
				continue
			}
			t := r.BuildTime.Seconds() * 1e3
			if r.B == bench.GridBlockSizes[0] {
				minB = t
			}
			if r.B == bench.GridBlockSizes[len(bench.GridBlockSizes)-1] {
				maxB = t
			}
		}
		b.ReportMetric(minB, "ecoli-b5-encode-ms")
		b.ReportMetric(maxB, "ecoli-b15-encode-ms")
	}
}

// BenchmarkFig7 regenerates Fig. 7: mapping time for ~240k (scaled) 100 bp
// reads as the mapping ratio sweeps 0-100%.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7(benchScale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Ref == bench.EColi && r.B == 15 && r.SF == 50 {
				switch r.MappingRatio {
				case 0:
					b.ReportMetric(r.FPGATime.Seconds()*1e3, "fpga-ratio0-ms")
				case 1:
					b.ReportMetric(r.FPGATime.Seconds()*1e3, "fpga-ratio100-ms")
				}
			}
		}
	}
}

// BenchmarkTable1 regenerates Table I: 100 M (scaled) 35 bp reads on
// E. coli across BWaveR-FPGA, BWaveR-CPU, and the Bowtie2-like baseline.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.Table1(benchScale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		block := results[0]
		b.ReportMetric(block.Entries[0].Time.Seconds()*1e3, "fpga-ms")
		b.ReportMetric(block.Entries[1].Slowdown, "speedup-vs-cpu")
		b.ReportMetric(block.Entries[4].Slowdown, "speedup-vs-16t")
		b.ReportMetric(block.Entries[1].PowerRatio, "powereff-vs-cpu")
	}
}

// BenchmarkTable2 regenerates Table II: 1/10/100 M (scaled) 40 bp reads on
// chromosome 21. The headline metric is how the CPU speedup grows with the
// read count (amortisation of the fixed device overhead).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.Table2(benchScale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].Entries[1].Slowdown, "speedup-1M")
		b.ReportMetric(results[1].Entries[1].Slowdown, "speedup-10M")
		b.ReportMetric(results[2].Entries[1].Slowdown, "speedup-100M")
	}
}

// --- Ablation benches (DESIGN.md) ---

func benchIndexInputs(b *testing.B) ([]uint8, []dna.Seq) {
	b.Helper()
	ref, err := readsim.EColiLike(1, 0.05) // ~232 kbp
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 2000, Length: 40, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	text := make([]uint8, len(ref))
	for i, base := range ref {
		text[i] = uint8(base)
	}
	return text, readsim.Seqs(reads)
}

// BenchmarkOccProviders compares rank throughput of the succinct wavelet
// structure against the checkpointed and flat layouts (the CPU-side design
// space of §II).
func BenchmarkOccProviders(b *testing.B) {
	text, _ := benchIndexInputs(b)
	providers := []struct {
		name  string
		build func() (fmindex.OccProvider, error)
	}{
		{"wavelet-rrr", func() (fmindex.OccProvider, error) {
			return fmindex.NewWaveletOcc(text, 4, rrr.DefaultParams)
		}},
		{"wavelet-plain", func() (fmindex.OccProvider, error) {
			return fmindex.NewWaveletOccBackend(text, 4, wavelet.PlainBackend())
		}},
		{"checkpoint", func() (fmindex.OccProvider, error) { return fmindex.NewCheckpointOcc(text) }},
		{"flat", func() (fmindex.OccProvider, error) { return fmindex.NewFlatOcc(text, 4) }},
		{"rlfm", func() (fmindex.OccProvider, error) {
			return fmindex.NewRLFMOcc(text, 4, rrr.DefaultParams)
		}},
	}
	for _, p := range providers {
		occ, err := p.build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(occ.SizeBytes())/1e6, "MB")
			for i := 0; i < b.N; i++ {
				occ.Occ(uint8(i&3), (i*7919)%(occ.Len()+1))
			}
		})
	}
}

// BenchmarkWaveletBackends compares end-to-end mapping with RRR versus
// plain node bit-vectors — the compression/time trade at the system level.
func BenchmarkWaveletBackends(b *testing.B) {
	text, reads := benchIndexInputs(b)
	ref := make(dna.Seq, len(text))
	for i, s := range text {
		ref[i] = dna.Base(s)
	}
	for _, cfg := range []struct {
		name  string
		plain bool
	}{{"rrr", false}, {"plain", true}} {
		ix, err := core.BuildIndex(ref, core.IndexConfig{PlainBitvectors: cfg.plain, Locate: core.LocateNone})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(ix.StructureBytes())/1e6, "MB")
			for i := 0; i < b.N; i++ {
				ix.MapRead(reads[i%len(reads)])
			}
		})
	}
}

// BenchmarkLocateStrategies compares the paper's host-side full suffix
// array against the sampled-SA extension.
func BenchmarkLocateStrategies(b *testing.B) {
	text, reads := benchIndexInputs(b)
	ref := make(dna.Seq, len(text))
	for i, s := range text {
		ref[i] = dna.Base(s)
	}
	for _, cfg := range []struct {
		name string
		c    core.IndexConfig
	}{
		{"full-sa", core.IndexConfig{Locate: core.LocateFullSA}},
		{"sampled-8", core.IndexConfig{Locate: core.LocateSampled, SampleRate: 8}},
		{"sampled-32", core.IndexConfig{Locate: core.LocateSampled, SampleRate: 32}},
	} {
		ix, err := core.BuildIndex(ref, cfg.c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(ix.SizeBytes())/1e6, "MB")
			for i := 0; i < b.N; i++ {
				res := ix.MapRead(reads[i%len(reads)])
				if _, err := ix.FM().Locate(res.Forward); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiPE models the paper's future-work multi-core kernel:
// modeled kernel time versus PE count.
func BenchmarkMultiPE(b *testing.B) {
	text, reads := benchIndexInputs(b)
	ref := make(dna.Seq, len(text))
	for i, s := range text {
		ref[i] = dna.Base(s)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, pes := range []int{1, 2, 4, 8} {
		dev, err := fpga.NewDevice(fpga.Config{PEs: pes})
		if err != nil {
			b.Fatal(err)
		}
		kernel, err := dev.Program(ix)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("pes="+itoa(pes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := kernel.MapReadsOpts(reads, fpga.MapRunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(run.Profile.KernelCycles), "kernel-cycles")
			}
		})
	}
}

// BenchmarkBaselineThreads measures the Bowtie2-like baseline's thread
// scaling, the 1/8/16-thread axis of Tables I and II.
func BenchmarkBaselineThreads(b *testing.B) {
	text, reads := benchIndexInputs(b)
	ref := make(dna.Seq, len(text))
	for i, s := range text {
		ref[i] = dna.Base(s)
	}
	m, err := baseline.NewMapper(ref)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 8, 16} {
		b.Run("threads="+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := m.MapReads(reads, threads, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
