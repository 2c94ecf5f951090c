// Package bench regenerates every figure and table of the paper's
// evaluation (§IV), plus the ablations of the design choices DESIGN.md calls
// out. cmd/bwaver-bench is its one front-end; host rates on a reference that
// misses cache, layer by layer, are `go run ./benchmark`'s job.
//
// Methodology. The paper's workloads reach 100 million reads; measuring
// those directly is neither necessary nor informative on a development
// machine, so each experiment measures a configurable sample of reads and
// extrapolates linearly (mapping cost is per-read; index build cost is
// excluded from mapping time exactly as the paper excludes it). The FPGA
// numbers come from the cycle model of internal/fpga, which is linear in
// the summed backward-search steps, so its extrapolation is exact given the
// sampled mean step count. Reference sequences are synthetic genomes at the
// paper's lengths (see internal/readsim); Scale shrinks them for tests.
package bench

import (
	"fmt"
	"io"
	"time"

	"bwaver/internal/bwt"
	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
)

// Power reference values from §IV: the paper compares an Intel Xeon
// E5-2698 v3 at 135 W against the Alveo U200 at 25 W.
const (
	hostPowerWatts = 135.0
	fpgaPowerWatts = 25.0
)

// Scale controls how far the experiments are shrunk from paper size.
type Scale struct {
	// Ref scales the reference genome lengths (1 = paper size).
	Ref float64
	// Reads scales the per-experiment read counts (1 = paper size).
	Reads float64
	// SampleReads is how many reads are actually measured before
	// extrapolating to the (scaled) target count.
	SampleReads int
	// Seed drives all synthetic generation.
	Seed int64
}

// deviceConfig returns the simulated card configuration for this scale.
// The fixed OpenCL setup overhead (200 ms) is calibrated against the paper's
// full-size workloads, so it is scaled together with the read counts:
// otherwise a 1000x-shrunk workload would compare milliseconds of mapping
// against an unshrunk fixed cost and every ratio in Tables I/II would be
// about the overhead instead of about the kernels. At read scale 1 this is a
// no-op.
func (s Scale) deviceConfig() fpga.Config {
	return fpga.Config{SetupTime: time.Duration(float64(fpga.DefaultSetupTime) * s.Reads)}
}

func (s Scale) validate() error {
	if s.Ref <= 0 || s.Ref > 1 || s.Reads <= 0 || s.Reads > 1 {
		return fmt.Errorf("bench: scales must be in (0,1], got ref=%v reads=%v", s.Ref, s.Reads)
	}
	if s.SampleReads < 100 {
		return fmt.Errorf("bench: sample of %d reads is too small to extrapolate from", s.SampleReads)
	}
	return nil
}

// Reference identifies one of the paper's two references.
type Reference int

// The two references of §IV.
const (
	eColi Reference = iota
	chr21
)

// String implements fmt.Stringer.
func (r Reference) String() string {
	if r == chr21 {
		return "Human Chr.21"
	}
	return "E.Coli"
}

func (r Reference) generate(s Scale) (dna.Seq, error) {
	if r == chr21 {
		return readsim.Chr21Like(s.Seed, s.Ref)
	}
	return readsim.EColiLike(s.Seed, s.Ref)
}

// Grid is the (b, sf) parameter grid of Figs. 5 and 6.
var (
	gridBlockSizes        = []int{5, 7, 9, 11, 13, 15}
	gridSuperblockFactors = []int{50, 100, 150, 200}
)

// Fig5Row is one point of Fig. 5: structure size for a (reference, b, sf)
// combination.
type Fig5Row struct {
	Ref               Reference
	B, SF             int
	StructureBytes    int
	SharedBytes       int
	UncompressedBytes int
	BuildTime         time.Duration // doubles as the Fig. 6 measurement
}

// totalBytes is what Fig. 5 plots.
func (r Fig5Row) totalBytes() int { return r.StructureBytes + r.SharedBytes }

// saving is the space saved versus the 1-byte-per-symbol BWT.
func (r Fig5Row) saving() float64 {
	return 1 - float64(r.totalBytes())/float64(r.UncompressedBytes)
}

// Fig5And6 sweeps the (b, sf) grid over both references, measuring the
// structure size (Fig. 5) and the encoding time (Fig. 6) at each point.
// Progress, if non-nil, receives one line per grid point.
func Fig5And6(s Scale, progress io.Writer) ([]Fig5Row, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, ref := range []Reference{eColi, chr21} {
		genome, err := ref.generate(s)
		if err != nil {
			return nil, err
		}
		// The suffix array and BWT do not depend on (b, sf); compute them
		// once per reference and re-run only the encoding step per grid
		// point, which is exactly the quantity Fig. 6 plots.
		sa, err := suffixarray.Build(genome, dna.AlphabetSize)
		if err != nil {
			return nil, err
		}
		transform, err := bwt.Transform(genome, sa)
		if err != nil {
			return nil, err
		}
		for _, b := range gridBlockSizes {
			for _, sf := range gridSuperblockFactors {
				start := time.Now()
				occ, err := fmindex.NewWaveletOcc(transform.Data, dna.AlphabetSize,
					rrr.Params{BlockSize: b, SuperblockFactor: sf})
				if err != nil {
					return nil, fmt.Errorf("bench: fig5 %v b=%d sf=%d: %w", ref, b, sf, err)
				}
				encodeTime := time.Since(start)
				row := Fig5Row{
					Ref: ref, B: b, SF: sf,
					StructureBytes:    occ.Tree.SizeBytes(),
					SharedBytes:       occ.Tree.SharedSizeBytes(),
					UncompressedBytes: len(genome),
					BuildTime:         encodeTime,
				}
				rows = append(rows, row)
				if progress != nil {
					fmt.Fprintf(progress, "fig5/6 %-12s b=%-2d sf=%-3d size=%8.2f MB  encode=%v\n",
						ref, b, sf, float64(row.totalBytes())/1e6, row.BuildTime.Round(time.Millisecond))
				}
			}
		}
	}
	return rows, nil
}

// Fig7Row is one point of Fig. 7: mapping time for a read set with a given
// mapping ratio.
type Fig7Row struct {
	Ref          Reference
	B, SF        int
	MappingRatio float64
	Reads        int
	// CPUTime is the measured software mapping time (extrapolated to
	// Reads); FPGATime the modeled device time for the same batch.
	CPUTime  time.Duration
	FPGATime time.Duration
}

// fig7ReadsPaper is the paper's Fig. 7 read count.
const fig7ReadsPaper = 240000

// Fig7 maps ~240k (scaled) 100 bp reads at several mapping ratios over both
// references, for a subset of (b, sf) combinations, reporting software time
// and modeled FPGA time.
func Fig7(s Scale, progress io.Writer) ([]Fig7Row, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	targetReads := int(float64(fig7ReadsPaper) * s.Reads)
	if targetReads < 1 {
		targetReads = 1
	}
	combos := []rrr.Params{
		{BlockSize: 15, SuperblockFactor: 50},
		{BlockSize: 15, SuperblockFactor: 100},
		{BlockSize: 11, SuperblockFactor: 50},
	}
	ratios := []float64{0, 0.25, 0.5, 0.75, 1}
	var rows []Fig7Row
	for _, ref := range []Reference{eColi, chr21} {
		genome, err := ref.generate(s)
		if err != nil {
			return nil, err
		}
		for _, params := range combos {
			ix, err := core.BuildIndex(genome, core.IndexConfig{RRR: params})
			if err != nil {
				return nil, err
			}
			ix.DropText() // the paper's CPU search ranks to the end
			dev, err := fpga.NewDevice(s.deviceConfig())
			if err != nil {
				return nil, err
			}
			kernel, err := dev.Program(ix)
			if err != nil {
				return nil, err
			}
			for _, ratio := range ratios {
				sample := min(s.SampleReads, targetReads)
				reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
					Count: sample, Length: 100, MappingRatio: ratio,
					RevCompFraction: 0.5, Seed: s.Seed + 7,
				})
				if err != nil {
					return nil, err
				}
				seqs := readsim.Seqs(reads)
				_, cpuStats, err := ix.MapReads(seqs, core.MapOptions{})
				if err != nil {
					return nil, err
				}
				run, err := kernel.MapReadsOpts(seqs, fpga.MapRunOptions{})
				if err != nil {
					return nil, err
				}
				avgSteps := float64(cpuStats.TotalSteps) / float64(sample)
				row := Fig7Row{
					Ref: ref, B: params.BlockSize, SF: params.SuperblockFactor,
					MappingRatio: ratio, Reads: targetReads,
					CPUTime:  extrapolate(cpuStats.Elapsed, sample, targetReads),
					FPGATime: kernel.ModelProfile(targetReads, avgSteps).Total(),
				}
				_ = run // functional execution doubles as a correctness check
				rows = append(rows, row)
				if progress != nil {
					fmt.Fprintf(progress, "fig7 %-12s b=%-2d sf=%-3d ratio=%3.0f%%  cpu=%-12v fpga=%v\n",
						ref, row.B, row.SF, ratio*100,
						row.CPUTime.Round(time.Millisecond), row.FPGATime.Round(time.Millisecond))
				}
			}
		}
	}
	return rows, nil
}

// extrapolate scales a measured duration from sample to target reads.
func extrapolate(d time.Duration, sample, target int) time.Duration {
	return time.Duration(float64(d) * float64(target) / float64(sample))
}
