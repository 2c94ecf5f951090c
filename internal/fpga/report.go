package fpga

import (
	"fmt"
	"io"
	"strings"
)

// Resource report, in the spirit of an HLS synthesis summary. The paper
// targets the Alveo U200's XCU200 (2160 BRAM36 blocks of 4.5 KiB and 960
// URAM blocks of 36 KiB); this report derives how the succinct structure
// tiles onto those memories and what throughput the cycle model implies.
// Everything here is a model estimate for sizing intuition — the honest
// counterpart to a synthesis report, not a synthesis result.

// U200 on-chip memory inventory.
const (
	u200BRAM36Blocks = 2160
	u200URAMBlocks   = 960
	bram36Bytes      = 4608  // 36 Kibit
	uramBytes        = 36864 // 288 Kibit
)

// Report summarises a programmed kernel's modeled footprint and throughput.
type Report struct {
	// StructureBytes is everything resident on-chip: the succinct structure
	// plus the prefix-lookup table when the kernel carries one.
	StructureBytes int
	// FtabBytes is the prefix table's share of StructureBytes (0 when the
	// kernel runs ftab-off, including after a BRAM degrade).
	FtabBytes int
	// URAMUsed and BRAMUsed tile the structure: bulk data in URAM,
	// remainder and the shared rank table in BRAM.
	URAMUsed, BRAMUsed int
	// URAMPct and BRAMPct are U200 utilisation percentages.
	URAMPct, BRAMPct float64
	// PEs and ClockMHz echo the configuration.
	PEs      int
	ClockMHz float64
	// CyclesPerStep is the modeled cost of one backward-search step.
	CyclesPerStep uint64
	// ReadsPerSecond estimates steady-state throughput for reads whose
	// mean per-query occupancy is AvgSteps.
	AvgSteps       float64
	ReadsPerSecond float64
}

// Report sizes the kernel for reads averaging avgSteps backward-search
// steps (use the read length for fully-mapping workloads; unmapped reads
// exit earlier).
func (k *Kernel) Report(avgSteps float64) (Report, error) {
	if avgSteps <= 0 {
		return Report{}, fmt.Errorf("fpga: average steps %v must be positive", avgSteps)
	}
	cfg := k.dev.cfg
	r := Report{
		StructureBytes: k.indexBytes,
		FtabBytes:      k.ftabBytes,
		PEs:            cfg.PEs,
		ClockMHz:       cfg.ClockHz / 1e6,
		CyclesPerStep:  k.stepCycles(),
		AvgSteps:       avgSteps,
	}
	// Tile the structure: whole URAM blocks first, BRAM for the tail.
	// Real floorplans interleave banks per pipeline port; block counts are
	// what capacity planning needs.
	r.URAMUsed = r.StructureBytes / uramBytes
	rem := r.StructureBytes - r.URAMUsed*uramBytes
	r.BRAMUsed = (rem + bram36Bytes - 1) / bram36Bytes
	r.URAMPct = 100 * float64(r.URAMUsed) / float64(u200URAMBlocks)
	r.BRAMPct = 100 * float64(r.BRAMUsed) / float64(u200BRAM36Blocks)
	cyclesPerRead := avgSteps*float64(r.CyclesPerStep) + float64(cfg.QueryOverheadCycles)
	r.ReadsPerSecond = cfg.ClockHz / cyclesPerRead * float64(cfg.PEs)
	return r, nil
}

// WriteReport renders the report.
func WriteReport(w io.Writer, r Report) {
	fmt.Fprintf(w, "kernel resource model (Alveo U200)\n")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 46))
	fmt.Fprintf(w, "structure on chip:   %10d bytes\n", r.StructureBytes)
	if r.FtabBytes > 0 {
		fmt.Fprintf(w, "  of which ftab LUT: %10d bytes\n", r.FtabBytes)
	}
	fmt.Fprintf(w, "URAM blocks:         %10d / %d (%.1f%%)\n", r.URAMUsed, u200URAMBlocks, r.URAMPct)
	fmt.Fprintf(w, "BRAM36 blocks:       %10d / %d (%.1f%%)\n", r.BRAMUsed, u200BRAM36Blocks, r.BRAMPct)
	fmt.Fprintf(w, "processing elements: %10d\n", r.PEs)
	fmt.Fprintf(w, "kernel clock:        %10.0f MHz\n", r.ClockMHz)
	fmt.Fprintf(w, "cycles per step:     %10d\n", r.CyclesPerStep)
	fmt.Fprintf(w, "throughput @ %.0f steps/read: %.2f M reads/s\n", r.AvgSteps, r.ReadsPerSecond/1e6)
}
