package fpga

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/readsim"
)

func buildIndex(t *testing.T, n int) *core.Index {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: n, Seed: 21, RepeatFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func simReads(t *testing.T, ix *core.Index, count, length int, ratio float64) []dna.Seq {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: ix.RefLength(), Seed: 21, RepeatFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: count, Length: length, MappingRatio: ratio, RevCompFraction: 0.5, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	return readsim.Seqs(reads)
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	d, err := NewDevice(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	if cfg.ClockHz != 300e6 || cfg.PowerWatts != 25 || cfg.PEs != 1 || cfg.BRAMBytes != 40<<20 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	bad := []Config{
		{ClockHz: -1},
		{BRAMBytes: -5},
		{PCIeBytesPerSec: -1},
		{PEs: -2},
		{PowerWatts: -3},
	}
	for _, c := range bad {
		if _, err := NewDevice(c); err == nil {
			t.Errorf("NewDevice(%+v) accepted invalid config", c)
		}
	}
}

func TestBRAMCapacityGate(t *testing.T) {
	ix := buildIndex(t, 50000)
	d, err := NewDevice(Config{BRAMBytes: 1024}) // absurdly small card
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(ix); err == nil {
		t.Fatal("programming oversized index should fail")
	} else if !strings.Contains(err.Error(), "BRAM") {
		t.Errorf("error should mention BRAM: %v", err)
	}
	big, err := NewDevice(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Program(ix); err != nil {
		t.Fatalf("default device rejected small index: %v", err)
	}
}

// TestResultsMatchCPU is the accuracy claim: the device path must produce
// bit-identical match ranges to the CPU path.
func TestResultsMatchCPU(t *testing.T) {
	ix := buildIndex(t, 30000)
	reads := simReads(t, ix, 300, 40, 0.5)
	d, _ := NewDevice(Config{})
	k, err := d.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	run, err := k.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cpu, _, err := ix.MapReads(reads, core.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reads {
		if run.Results[i].Forward != cpu[i].Forward || run.Results[i].Reverse != cpu[i].Reverse {
			t.Fatalf("read %d: FPGA and CPU disagree", i)
		}
	}
}

func TestQueryRecordLimits(t *testing.T) {
	ix := buildIndex(t, 5000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	long := make(dna.Seq, maxQueryBases+1)
	if _, err := k.MapReadsOpts([]dna.Seq{long}, MapRunOptions{}); err == nil {
		t.Error("accepted read longer than the 512-bit record limit")
	}
	if run, err := k.MapReadsOpts([]dna.Seq{{}}, MapRunOptions{}); err != nil || run.Results[0].Mapped() || run.Results[0].Steps != 0 {
		t.Errorf("empty read: %+v, %v; want a 0-step query that maps nowhere", run.Results, err)
	}
	ok := make(dna.Seq, maxQueryBases)
	if _, err := k.MapReadsOpts([]dna.Seq{ok}, MapRunOptions{}); err != nil {
		t.Errorf("rejected maximum-length read: %v", err)
	}
}

// TestFixedOverheadAmortisation reproduces the Table II trend: per-read cost
// falls as the batch grows, because setup and index transfer are fixed.
func TestFixedOverheadAmortisation(t *testing.T) {
	ix := buildIndex(t, 40000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	perRead := func(count int) float64 {
		run, err := k.MapReadsOpts(simReads(t, ix, count, 40, 0.5), MapRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return run.Profile.Total().Seconds() / float64(count)
	}
	small := perRead(100)
	large := perRead(10000)
	if large >= small {
		t.Errorf("per-read cost did not amortise: %v (100 reads) vs %v (10k reads)", small, large)
	}
}

// TestKernelTimeIndependentOfReferenceSize reproduces the Fig. 7 claim:
// search time depends on reads, not on the reference length.
func TestKernelTimeIndependentOfReferenceSize(t *testing.T) {
	small := buildIndex(t, 20000)
	large := buildIndex(t, 200000)
	d, _ := NewDevice(Config{})
	ks, _ := d.Program(small)
	kl, _ := d.Program(large)
	reads := simReads(t, small, 2000, 40, 0) // unmapped reads: same work on both
	runS, err := ks.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runL, err := kl.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := runS.Profile.KernelCycles
	l := runL.Profile.KernelCycles
	ratio := float64(l) / float64(s)
	if ratio > 1.5 || ratio < 0.6 {
		t.Errorf("kernel cycles scaled with reference size: %d vs %d", s, l)
	}
}

// TestMappingRatioDrivesKernelTime reproduces the other Fig. 7 claim:
// mapped reads cost more because unmapped reads exit early.
func TestMappingRatioDrivesKernelTime(t *testing.T) {
	ix := buildIndex(t, 100000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	cyclesAt := func(ratio float64) uint64 {
		run, err := k.MapReadsOpts(simReads(t, ix, 3000, 100, ratio), MapRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return run.Profile.KernelCycles
	}
	c0 := cyclesAt(0)
	c50 := cyclesAt(0.5)
	c100 := cyclesAt(1)
	if !(c0 < c50 && c50 < c100) {
		t.Errorf("kernel cycles not increasing with mapping ratio: %d, %d, %d", c0, c50, c100)
	}
}

func TestMultiPESpeedsKernel(t *testing.T) {
	ix := buildIndex(t, 30000)
	reads := simReads(t, ix, 5000, 40, 0.8)
	single, _ := NewDevice(Config{PEs: 1})
	quad, _ := NewDevice(Config{PEs: 4})
	k1, _ := single.Program(ix)
	k4, _ := quad.Program(ix)
	r1, err := k1.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := k4.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Profile.KernelCycles) / float64(r4.Profile.KernelCycles)
	if speedup < 3.5 || speedup > 4.1 {
		t.Errorf("4-PE kernel speedup %v, want ~4", speedup)
	}
	// Results must be unchanged.
	for i := range reads {
		if r1.Results[i].Forward != r4.Results[i].Forward {
			t.Fatal("PE count changed results")
		}
	}
}

func TestProfileAndEvents(t *testing.T) {
	ix := buildIndex(t, 20000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	run, err := k.MapReadsOpts(simReads(t, ix, 500, 35, 0.5), MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := run.Profile
	if p.Total() != p.Setup+p.IndexTransfer+p.QueryTransfer+p.KernelTime+p.ResultTransfer {
		t.Error("Total does not sum components")
	}
	if p.KernelCycles == 0 || p.KernelTime <= 0 {
		t.Error("kernel model produced no cycles")
	}
	if len(p.Events) != 5 {
		t.Fatalf("%d events, want 5", len(p.Events))
	}
	// Events must tile the timeline in order.
	var cursor time.Duration
	for _, e := range p.Events {
		if e.Start != cursor || e.End < e.Start {
			t.Errorf("event %s misplaced: start=%v cursor=%v", e.Name, e.Start, cursor)
		}
		if e.Duration() != e.End-e.Start {
			t.Errorf("event %s duration wrong", e.Name)
		}
		cursor = e.End
	}
	if cursor != p.Total() {
		t.Errorf("events cover %v, total %v", cursor, p.Total())
	}
	if p.EnergyJoules(25) <= 0 {
		t.Error("energy model returned nothing")
	}
	// 25 W for the modeled duration.
	want := 25 * p.Total().Seconds()
	if got := p.EnergyJoules(25); got != want {
		t.Errorf("energy %v, want %v", got, want)
	}
}

// A run charged batch by batch lays each batch's events after the last: the
// merged timeline tiles without overlap and ends at the summed total, and the
// batches' own profiles keep their timelines.
func TestMergeLaysBatchesEndToEnd(t *testing.T) {
	ix := buildIndex(t, 20000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	reads := simReads(t, ix, 400, 35, 0.5)
	var merged Profile
	var batches []Profile
	for i, batch := range [][]dna.Seq{reads[:200], reads[200:]} {
		run, err := k.MapReadsOpts(batch, MapRunOptions{IndexResident: i > 0})
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(run.Profile)
		batches = append(batches, run.Profile)
	}
	if len(merged.Events) != 10 {
		t.Fatalf("%d events, want 10", len(merged.Events))
	}
	var cursor time.Duration
	for _, e := range merged.Events {
		if e.Queued > e.Start || e.Start != cursor || e.End < e.Start {
			t.Errorf("event %s misplaced: queued=%v start=%v cursor=%v", e.Name, e.Queued, e.Start, cursor)
		}
		cursor = e.End
	}
	if want := batches[0].Total() + batches[1].Total(); cursor != want || merged.Total() != want {
		t.Errorf("events cover %v, merged total %v, want %v", cursor, merged.Total(), want)
	}
	if batches[1].Events[0].Start != 0 {
		t.Error("Merge shifted the batch's own events")
	}
}

// TestLocatingSessionMatchesCPU maps three batches through a locating
// session on a two-card farm that corrupts a fifth of its result transfers,
// on a built full and a built sampled-8 index (text attached, so short
// intervals finish on it): exact and two-pass results — ranges, steps,
// strata and the positions the host read off the searches that found them —
// must equal a locating CPU batch's, and the corrupted transfers must have
// been caught and retried.
func TestLocatingSessionMatchesCPU(t *testing.T) {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 20000, Seed: 21, RepeatFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan("seed=7,corrupt=0.2")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []core.IndexConfig{
		{FtabK: 6},
		{FtabK: 6, Locate: core.LocateSampled, SampleRate: 8},
	} {
		ix, err := core.BuildIndex(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reads := simReads(t, ix, 300, 40, 0.8)
		for i := 0; i < len(reads); i += 3 {
			reads[i] = reads[i].Clone()
			reads[i][17] = (reads[i][17] + 1) % 4 // one substitution for pass 2
		}
		name := cfg.Locate.String()
		t.Run(name+"/exact", func(t *testing.T) {
			onText := 0
			for _, r := range locatingSessionMatchesCPU(t, ix, plan, reads, Exact(true), func(dst []core.MapResult, batch []dna.Seq) error {
				_, err := ix.MapReadsInto(dst, batch, core.MapOptions{Locate: true})
				return err
			}) {
				if ix.FM().OnText(r.Forward) && len(r.ForwardPositions) > 0 {
					onText++
				}
			}
			if onText == 0 {
				t.Error("no located result finished on the text")
			}
		})
		t.Run(name+"/two-pass", func(t *testing.T) {
			rescued := 0
			for _, r := range locatingSessionMatchesCPU(t, ix, plan, reads, TwoPass(1, true), func(dst []core.ApproxResult, batch []dna.Seq) error {
				return ix.MapReadsApproxFtab(dst, batch, 1, core.MapOptions{Locate: true}, true)
			}) {
				if !r.Exact.Mapped() && r.Mapped() {
					rescued++
				}
			}
			if rescued == 0 {
				t.Error("pass 2 rescued no read")
			}
		})
	}
}

// locatingSessionMatchesCPU maps reads in three batches through a session of
// w on a two-card farm under plan and holds every batch's results to cpu's;
// it returns the session's results.
func locatingSessionMatchesCPU[R any](t *testing.T, ix *core.Index, plan *FaultPlan, reads []dna.Seq, w Workload[R], cpu func(dst []R, batch []dna.Seq) error) []R {
	t.Helper()
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{MaxAttempts: 8, VerifyStride: 7})
	if err != nil {
		t.Fatal(err)
	}
	session := NewSession(farm, w, MapRunOptions{})
	var all []R
	for bi, batch := range batchesOf(reads, 100) {
		run, err := session.Map(batch)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]R, len(batch))
		if err := cpu(want, batch); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !reflect.DeepEqual(run.Results[i], want[i]) {
				t.Fatalf("batch %d read %d: session\n%+v\nCPU\n%+v", bi, i, run.Results[i], want[i])
			}
		}
		all = append(all, run.Results...)
	}
	if farm.Stats().ChecksumMismatches == 0 {
		t.Error("no corrupted result transfer was caught")
	}
	return all
}

// TestSequentialRankAblation checks that removing the adder-tree pipelining
// (DESIGN.md ablation) costs roughly levels*sf/2 more kernel cycles.
func TestSequentialRankAblation(t *testing.T) {
	ix := buildIndex(t, 30000)
	reads := simReads(t, ix, 1000, 40, 0.8)
	fast, _ := NewDevice(Config{})
	slow, _ := NewDevice(Config{SequentialRank: true})
	kf, _ := fast.Program(ix)
	ks, _ := slow.Program(ix)
	rf, err := kf.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ks.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rs.Profile.KernelCycles) / float64(rf.Profile.KernelCycles)
	// sf=50 -> per-step cost 2*(25+1)=52; with per-query overhead the
	// end-to-end ratio lands somewhat below that.
	if ratio < 10 || ratio > 60 {
		t.Errorf("sequential-rank cycle ratio %v outside the plausible [10,60]", ratio)
	}
	// Results must be identical; only timing changes.
	for i := range reads {
		if rf.Results[i].Forward != rs.Results[i].Forward {
			t.Fatal("ablation changed results")
		}
	}
}

// TestDoubleBufferOverlap checks the double-buffering ablation: overlapping
// query streaming with compute hides min(transfer, kernel) time without
// changing results.
func TestDoubleBufferOverlap(t *testing.T) {
	ix := buildIndex(t, 30000)
	reads := simReads(t, ix, 5000, 40, 0.8)
	plain, _ := NewDevice(Config{})
	buffered, _ := NewDevice(Config{DoubleBuffer: true})
	kp, _ := plain.Program(ix)
	kb, _ := buffered.Program(ix)
	rp, err := kp.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := kb.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Profile.Overlap <= 0 {
		t.Fatal("double buffering hid no time")
	}
	wantSaving := min(rp.Profile.QueryTransfer, rp.Profile.KernelTime)
	if got := rp.Profile.Total() - rb.Profile.Total(); got != wantSaving {
		t.Errorf("saving %v, want %v", got, wantSaving)
	}
	for i := range reads {
		if rp.Results[i].Forward != rb.Results[i].Forward {
			t.Fatal("double buffering changed results")
		}
	}
	// The merged streaming event must appear and the timeline still tiles.
	var cursor time.Duration
	merged := false
	for _, e := range rb.Profile.Events {
		if e.Name == "stream:queries+kernel" {
			merged = true
		}
		if e.Start != cursor {
			t.Errorf("event %s misplaced", e.Name)
		}
		cursor = e.End
	}
	if !merged {
		t.Error("merged streaming event missing")
	}
	if cursor != rb.Profile.Total() {
		t.Errorf("events cover %v, total %v", cursor, rb.Profile.Total())
	}
}

// TestBatchSizeAblation checks the batched host flow — hosts with bounded
// device buffers send queries "in batches to the FPGA", as the server does:
// one MapReadsOpts per batch, the index resident after the first. Results are
// identical, and since each batch pays its own pipeline fill, small batches
// cost more cycles.
func TestBatchSizeAblation(t *testing.T) {
	ix := buildIndex(t, 20000)
	reads := simReads(t, ix, 2000, 40, 0.6)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	whole, err := k.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batched := func(batchSize int) (results []core.MapResult, cycles uint64, indexTransfer time.Duration) {
		for start := 0; start < len(reads); start += batchSize {
			end := min(start+batchSize, len(reads))
			run, err := k.MapReadsOpts(reads[start:end], MapRunOptions{IndexResident: start > 0})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, run.Results...)
			cycles += run.Profile.KernelCycles
			indexTransfer += run.Profile.IndexTransfer
		}
		return results, cycles, indexTransfer
	}
	var prevCycles uint64
	for i, batchSize := range []int{10, 100, 2000} {
		results, cycles, indexTransfer := batched(batchSize)
		if len(results) != len(reads) {
			t.Fatalf("batch=%d: %d results", batchSize, len(results))
		}
		for j := range reads {
			if results[j].Forward != whole.Results[j].Forward {
				t.Fatalf("batch=%d: result %d differs", batchSize, j)
			}
		}
		if i > 0 && cycles > prevCycles {
			t.Errorf("larger batches should not cost more cycles: %d then %d", prevCycles, cycles)
		}
		prevCycles = cycles
		// The index is transferred once regardless of batch count.
		if indexTransfer != whole.Profile.IndexTransfer {
			t.Errorf("batch=%d: index transfer charged %v, want %v", batchSize, indexTransfer, whole.Profile.IndexTransfer)
		}
	}
	// One big batch must equal the unbatched run exactly.
	if prevCycles != whole.Profile.KernelCycles {
		t.Errorf("single batch cycles %d != unbatched %d", prevCycles, whole.Profile.KernelCycles)
	}
}

// Duration returns the event's execution span.
func (e Event) Duration() time.Duration { return e.End - e.Start }
