package fpga

import (
	"strings"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/readsim"
)

func buildFtabIndex(t *testing.T, n, k int) *core.Index {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: n, Seed: 21, RepeatFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{FtabK: k})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestFtabKernelCycleReduction: the prefix table collapses the first k
// backward-search iterations of both pipelines into one LUT cycle, so the
// modeled kernel cycles must drop versus the same index without a table —
// while the mapped ranges stay bit-identical.
func TestFtabKernelCycleReduction(t *testing.T) {
	const k = 5
	plain := buildIndex(t, 60000)
	withTable := buildFtabIndex(t, 60000, k)
	reads := simReads(t, plain, 400, 35, 0.5)

	dev, err := NewDevice(Config{})
	if err != nil {
		t.Fatal(err)
	}
	kPlain, err := dev.Program(plain)
	if err != nil {
		t.Fatal(err)
	}
	kFtab, err := dev.Program(withTable)
	if err != nil {
		t.Fatal(err)
	}
	if !kFtab.UsesFtab() || kFtab.FtabDegraded() {
		t.Fatalf("table kernel state: uses=%v degraded=%v", kFtab.UsesFtab(), kFtab.FtabDegraded())
	}
	if kFtab.FtabBytes() != withTable.FtabBytes() {
		t.Errorf("kernel ftab bytes %d, index %d", kFtab.FtabBytes(), withTable.FtabBytes())
	}

	runPlain, err := kPlain.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runFtab, err := kFtab.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range runPlain.Results {
		a, b := runPlain.Results[i], runFtab.Results[i]
		if a.Forward != b.Forward || a.Reverse != b.Reverse {
			t.Fatalf("read %d: ftab kernel changed the result", i)
		}
	}
	if runFtab.Profile.KernelCycles >= runPlain.Profile.KernelCycles {
		t.Fatalf("ftab kernel %d cycles, plain %d — no reduction",
			runFtab.Profile.KernelCycles, runPlain.Profile.KernelCycles)
	}
	// The two pipelines run concurrently, so a read is charged the max of
	// its orientations; when both survive past k steps that max drops by
	// k-1. Require at least half the reads to realize that saving.
	saved := runPlain.Profile.KernelCycles - runFtab.Profile.KernelCycles
	minSaved := uint64(len(reads)*(k-1)) * kPlain.stepCycles() / 2
	if saved < minSaved {
		t.Errorf("saved %d cycles, expected at least %d for %d reads at k=%d",
			saved, minSaved, len(reads), k)
	}

	// The exact schedule simulation stays consistent with the batch model.
	total, _, err := kFtab.SimulateCycles(reads)
	if err != nil {
		t.Fatal(err)
	}
	if total != runFtab.Profile.KernelCycles {
		t.Errorf("SimulateCycles %d != batch model %d (1 PE must be exact)",
			total, runFtab.Profile.KernelCycles)
	}
}

// TestFtabBRAMDegrade: an index whose wavelet tree fits BRAM but whose table
// does not must program successfully with the table left off — same
// results, plain-search cycle accounting, degrade flagged in the report.
func TestFtabBRAMDegrade(t *testing.T) {
	const k = 8 // 4^8+1 lower bounds = 256 KiB of table
	ix := buildFtabIndex(t, 60000, k)
	structure := ix.DeviceStructureBytes()
	if ix.FtabBytes() <= 0 {
		t.Fatal("index has no table to degrade")
	}
	// Room for the structure, not for structure+table.
	dev, err := NewDevice(Config{BRAMBytes: structure + ix.FtabBytes()/2})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := dev.Program(ix)
	if err != nil {
		t.Fatalf("degrade must not fail the program: %v", err)
	}
	if kernel.UsesFtab() || !kernel.FtabDegraded() {
		t.Fatalf("kernel state: uses=%v degraded=%v", kernel.UsesFtab(), kernel.FtabDegraded())
	}
	if kernel.FtabBytes() != 0 {
		t.Errorf("degraded kernel still charges %d table bytes", kernel.FtabBytes())
	}

	// A degraded kernel behaves exactly like one programmed without a table.
	plainDev, err := NewDevice(Config{})
	if err != nil {
		t.Fatal(err)
	}
	plainIx := buildIndex(t, 60000)
	plainKernel, err := plainDev.Program(plainIx)
	if err != nil {
		t.Fatal(err)
	}
	reads := simReads(t, ix, 300, 35, 0.5)
	runDeg, err := kernel.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runPlain, err := plainKernel.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range runDeg.Results {
		a, b := runDeg.Results[i], runPlain.Results[i]
		if a.Forward != b.Forward || a.Reverse != b.Reverse {
			t.Fatalf("read %d: degraded kernel changed the result", i)
		}
	}
	if runDeg.Profile.KernelCycles != runPlain.Profile.KernelCycles {
		t.Errorf("degraded kernel %d cycles, ftab-free kernel %d — degrade must price plain search",
			runDeg.Profile.KernelCycles, runPlain.Profile.KernelCycles)
	}

	// The resource report shows no table share after the degrade.
	rep, err := kernel.Report(35)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FtabBytes != 0 || rep.StructureBytes != structure {
		t.Errorf("degraded report charges ftab: %+v", rep)
	}

	// At the largest order the table alone, 4·(4^12+1) bytes of lower bounds
	// plus its fixed part (≈ 67 MB), is past the default device's 40 MiB, so
	// the default device still degrades a k = 12 index with no help.
	if def := defaultBRAMBytes; 4*(1<<24+1)+64 <= def {
		t.Errorf("a k = 12 table fits the default %d bytes of BRAM", def)
	}
}

// TestFtabReport: an undegraded table kernel reports the table inside its
// on-chip footprint and renders it.
func TestFtabReport(t *testing.T) {
	ix := buildFtabIndex(t, 60000, 6)
	dev, err := NewDevice(Config{})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := dev.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := kernel.Report(35)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4*(1<<12+1) + 64; rep.FtabBytes != ix.FtabBytes() || rep.FtabBytes != want {
		t.Errorf("report ftab bytes %d, index %d, want 4^6+1 bounds and the fixed part, %d", rep.FtabBytes, ix.FtabBytes(), want)
	}
	if rep.StructureBytes != ix.DeviceStructureBytes()+ix.FtabBytes() {
		t.Errorf("report on-chip bytes %d, want structure %d + ftab %d",
			rep.StructureBytes, ix.DeviceStructureBytes(), ix.FtabBytes())
	}
	var sb strings.Builder
	WriteReport(&sb, rep)
	if !strings.Contains(sb.String(), "ftab LUT") {
		t.Error("report output missing the ftab line")
	}
}

// UsesFtab reports whether the kernel's pipelines consult a BRAM-resident
// prefix table, collapsing the first k backward-search iterations of both
// the forward and reverse-complement pipelines into one LUT access.
func (k *Kernel) UsesFtab() bool { return k.useFtab }

// FtabDegraded reports whether Program dropped the index's prefix table
// because structure + table exceeded the device's BRAM capacity.
func (k *Kernel) FtabDegraded() bool { return k.ftabDegraded }
