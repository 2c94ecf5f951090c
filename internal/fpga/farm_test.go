package fpga

import (
	"reflect"
	"strings"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
)

func TestFarmResultsMatchSingleCard(t *testing.T) {
	ix := buildIndex(t, 30000)
	reads := simReads(t, ix, 3000, 40, 0.6)
	devices := make([]*Device, 4)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
	}
	farm, err := NewFarm(devices, ix)
	if err != nil {
		t.Fatal(err)
	}
	if farm.Size() != 4 {
		t.Fatalf("Size = %d", farm.Size())
	}
	single, _ := NewDevice(Config{})
	k, _ := single.Program(ix)
	want, err := k.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runFarm(farm, Exact(false), reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reads {
		if got.Results[i].Forward != want.Results[i].Forward ||
			got.Results[i].Reverse != want.Results[i].Reverse {
			t.Fatalf("read %d: farm and single card disagree", i)
		}
	}
	// Kernel time must drop roughly by the card count.
	speedup := float64(want.Profile.KernelCycles) / float64(got.Profile.KernelCycles)
	if speedup < 3.0 || speedup > 5.0 {
		t.Errorf("4-card kernel speedup %v, want ~4", speedup)
	}
	// Index transfer is broadcast: charged once per card.
	if got.Profile.IndexTransfer != 4*want.Profile.IndexTransfer {
		t.Errorf("index transfer %v, want 4x %v", got.Profile.IndexTransfer, want.Profile.IndexTransfer)
	}
}

func TestFarmMoreCardsThanReads(t *testing.T) {
	ix := buildIndex(t, 5000)
	devices := make([]*Device, 8)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
	}
	farm, err := NewFarm(devices, ix)
	if err != nil {
		t.Fatal(err)
	}
	reads := simReads(t, ix, 3, 30, 1)
	run, err := runFarm(farm, Exact(false), reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 3 {
		t.Fatalf("%d results", len(run.Results))
	}
	for i := range run.Results {
		if !run.Results[i].Mapped() {
			t.Errorf("read %d unmapped", i)
		}
	}
}

func TestFarmValidation(t *testing.T) {
	ix := buildIndex(t, 2000)
	if _, err := NewFarm(nil, ix); err == nil {
		t.Error("empty farm accepted")
	}
	tiny, _ := NewDevice(Config{BRAMBytes: 16})
	if _, err := NewFarm([]*Device{tiny}, ix); err == nil {
		t.Error("farm accepted a card the index cannot fit")
	}
}

// TestSimulateCyclesMatchesModel validates the closed-form cycle model
// against the exact per-PE schedule: identical at one PE, within the
// worst-case stripe-imbalance bound at several.
func TestSimulateCyclesMatchesModel(t *testing.T) {
	ix := buildIndex(t, 30000)
	reads := simReads(t, ix, 2001, 40, 0.5) // odd count stresses striping
	for _, pes := range []int{1, 2, 4, 7} {
		d, _ := NewDevice(Config{PEs: pes})
		k, _ := d.Program(ix)
		run, err := k.MapReadsOpts(reads, MapRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exact, perPE, err := k.SimulateCycles(reads)
		if err != nil {
			t.Fatal(err)
		}
		if len(perPE) != pes {
			t.Fatalf("pes=%d: %d lanes", pes, len(perPE))
		}
		if pes == 1 {
			if exact != run.Profile.KernelCycles {
				t.Fatalf("single PE: exact %d != model %d", exact, run.Profile.KernelCycles)
			}
			continue
		}
		// The model divides total work evenly; the exact round-robin
		// schedule can only be worse. The imbalance of dealt lanes is
		// statistical, so allow a few percent of slack.
		if exact < run.Profile.KernelCycles {
			t.Errorf("pes=%d: exact %d below model %d", pes, exact, run.Profile.KernelCycles)
		}
		slack := run.Profile.KernelCycles / 20 // 5%
		if exact > run.Profile.KernelCycles+slack {
			t.Errorf("pes=%d: exact %d exceeds model %d by more than 5%%", pes, exact, run.Profile.KernelCycles)
		}
	}
	// An empty read is a query of no steps, priced alike by both; an
	// oversized read is rejected.
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	withEmpty := append([]dna.Seq{{}}, reads[:10]...)
	run, err := k.MapReadsOpts(withEmpty, MapRunOptions{})
	if err != nil {
		t.Fatalf("empty read refused: %v", err)
	}
	if exact, _, err := k.SimulateCycles(withEmpty); err != nil || exact != run.Profile.KernelCycles {
		t.Errorf("with an empty read: exact %d, model %d, %v", exact, run.Profile.KernelCycles, err)
	}
	if _, _, err := k.SimulateCycles([]dna.Seq{make(dna.Seq, maxQueryBases+1)}); err == nil {
		t.Error("oversized read accepted")
	}
}

func TestKernelReport(t *testing.T) {
	ix := buildIndex(t, 100000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	r, err := k.Report(35)
	if err != nil {
		t.Fatal(err)
	}
	if r.StructureBytes != k.IndexBytes() {
		t.Errorf("structure bytes %d != %d", r.StructureBytes, k.IndexBytes())
	}
	// The tiled blocks must cover the structure.
	covered := r.URAMUsed*uramBytes + r.BRAMUsed*bram36Bytes
	if covered < r.StructureBytes {
		t.Errorf("blocks cover %d < structure %d", covered, r.StructureBytes)
	}
	if covered-r.StructureBytes >= uramBytes+bram36Bytes {
		t.Errorf("tiling wastes %d bytes", covered-r.StructureBytes)
	}
	if r.CyclesPerStep != 1 || r.PEs != 1 || r.ClockMHz != 300 {
		t.Errorf("config echo wrong: %+v", r)
	}
	// 300 MHz / (35 + 4 overhead) ~ 7.7 M reads/s.
	if r.ReadsPerSecond < 7e6 || r.ReadsPerSecond > 8e6 {
		t.Errorf("throughput %v implausible", r.ReadsPerSecond)
	}
	// Multi-PE scales throughput.
	d4, _ := NewDevice(Config{PEs: 4})
	k4, _ := d4.Program(ix)
	r4, err := k4.Report(35)
	if err != nil {
		t.Fatal(err)
	}
	if r4.ReadsPerSecond < 3.9*r.ReadsPerSecond {
		t.Errorf("4-PE throughput %v not ~4x %v", r4.ReadsPerSecond, r.ReadsPerSecond)
	}
	if _, err := k.Report(0); err == nil {
		t.Error("zero steps accepted")
	}
	var sb strings.Builder
	WriteReport(&sb, r)
	for _, want := range []string{"URAM", "BRAM36", "reads/s", "300 MHz"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q:\n%s", want, sb.String())
		}
	}
}

// A one-card farm is its card: for every workload its run equals a kernel
// run on an identical card — results, checksum, cycle split and every
// profile field but the host's wall time, events included — and its event
// timeline ends at its modeled total. Double buffering makes Overlap nonzero,
// the field a farm once dropped along with WaveCycles.
func TestOneCardFarmProfileEqualsKernel(t *testing.T) {
	ix := buildIndex(t, 20000)
	reads := simReads(t, ix, 300, 40, 0.6)
	mix, mreads := memBatch(t, 30000, 30)
	for _, cfg := range []Config{{}, {DoubleBuffer: true}} {
		oneCardEqualsKernel(t, cfg, ix, reads, func() Workload[core.MapResult] { return Exact(false) })
		oneCardEqualsKernel(t, cfg, ix, reads, func() Workload[core.MapResult] { return Exact(true) })
		oneCardEqualsKernel(t, cfg, ix, reads, func() Workload[core.ApproxResult] { return TwoPass(1, false) })
		oneCardEqualsKernel(t, cfg, mix, mreads, func() Workload[core.MemResult] { return Mem(core.MemOptions{Paired: true}) })
	}
}

func oneCardEqualsKernel[R any](t *testing.T, cfg Config, ix *core.Index, reads []dna.Seq, work func() Workload[R]) {
	t.Helper()
	dev, _ := NewDevice(cfg)
	k, err := dev.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	card, _ := NewDevice(cfg)
	farm, err := NewFarm([]*Device{card}, ix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runKernel(k, work(), reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runFarm(farm, work(), reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	name := reflect.TypeOf(work()).String()
	if !reflect.DeepEqual(got.Results, want.Results) || got.Checksum != want.Checksum ||
		got.SeedCycles != want.SeedCycles || got.ExtendCycles != want.ExtendCycles {
		t.Errorf("%s %+v: one-card farm run differs from the kernel's", name, cfg)
	}
	want.Profile.HostWallTime, got.Profile.HostWallTime = 0, 0
	if !reflect.DeepEqual(got.Profile, want.Profile) {
		t.Errorf("%s %+v: one-card farm profile\n%+v\nkernel profile\n%+v", name, cfg, got.Profile, want.Profile)
	}
	if end := got.Profile.Events[len(got.Profile.Events)-1].End; end != got.Profile.Total() {
		t.Errorf("%s %+v: timeline ends at %v, total %v", name, cfg, end, got.Profile.Total())
	}
}

// Size returns the number of cards.
func (f *Farm) Size() int { return len(f.kernels) }

// Stats returns a snapshot of the farm's resilience counters.
func (f *Farm) Stats() ResilienceStats { return f.rec.Snapshot() }
