package fpga

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/readsim"
)

// mutatedReads returns reads sampled from the reference with exactly mm
// substitutions each, plus purely random reads that map nowhere even
// approximately.
func mutatedReads(t *testing.T, refLen, count, length, mm int) ([]dna.Seq, []int) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: refLen, Seed: 21, RepeatFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	var reads []dna.Seq
	var origins []int
	for i := 0; i < count; i++ {
		pos := rng.Intn(refLen - length)
		seq := ref[pos : pos+length].Clone()
		// Substitute mm distinct positions.
		for _, p := range rng.Perm(length)[:mm] {
			seq[p] = dna.Base((int(seq[p]) + 1 + rng.Intn(3)) % 4)
		}
		reads = append(reads, seq)
		origins = append(origins, pos)
	}
	return reads, origins
}

func TestTwoPassRescuesMutatedReads(t *testing.T) {
	ix := buildIndex(t, 40000)
	d, _ := NewDevice(Config{})
	k, err := d.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	// Reads with exactly one substitution: exact pass fails, 1-mismatch
	// pass must rescue them (the planted origin must be reachable).
	reads, origins := mutatedReads(t, 40000, 50, 50, 1)
	res, err := runKernel(k, twoPassWork{1}, reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescued == 0 {
		t.Fatal("no reads rescued by the mismatch pass")
	}
	for i := range reads {
		// A 50 bp read with one substitution in a 40 kbp genome cannot
		// match exactly (up to astronomically unlikely coincidences with
		// this fixed seed).
		approx := res.Results[i]
		if approx.Exact.Mapped() {
			continue
		}
		if !approx.Mapped() {
			t.Fatalf("read %d (origin %d) not rescued at k=1", i, origins[i])
		}
		if best := approx.BestMismatches(); best != 1 {
			t.Fatalf("read %d best stratum %d, want 1", i, best)
		}
	}
	if res.Profile.Reconfig != DefaultReconfigTime {
		t.Errorf("reconfiguration not charged: %v", res.Profile.Reconfig)
	}
	if res.Profile.Total() <= res.Profile.Reconfig {
		t.Error("profile total implausible")
	}
	// The reconfigure event must appear on the timeline.
	found := false
	for _, e := range res.Profile.Events {
		if e.Name == "reconfigure" && e.Duration() == DefaultReconfigTime {
			found = true
		}
	}
	if !found {
		t.Error("reconfigure event missing")
	}
}

func TestTwoPassAllExactSkipsReconfig(t *testing.T) {
	ix := buildIndex(t, 20000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	reads := simReads(t, ix, 100, 40, 1) // all map exactly
	res, err := runKernel(k, twoPassWork{2}, reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Results {
		if len(r.Forward) != 0 || len(r.Reverse) != 0 || r.Steps != 0 {
			t.Errorf("approx pass ran for exactly mapped read %d: %+v", i, r)
		}
	}
	if res.Rescued != 0 {
		t.Errorf("%d reads rescued in a fully-exact workload", res.Rescued)
	}
	if res.Profile.Reconfig != 0 {
		t.Error("reconfiguration charged although pass 2 never ran")
	}
}

func TestTwoPassRandomReadsStayUnmapped(t *testing.T) {
	ix := buildIndex(t, 20000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	reads := simReads(t, ix, 50, 60, 0) // random 60-mers
	res, err := runKernel(k, twoPassWork{1}, reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescued != 0 {
		t.Errorf("%d random reads rescued at k=1", res.Rescued)
	}
	for i, r := range res.Results {
		if r.Steps == 0 {
			t.Errorf("approx pass skipped unaligned read %d", i)
		}
	}
}

func TestTwoPassValidation(t *testing.T) {
	ix := buildIndex(t, 5000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	if _, err := runKernel(k, twoPassWork{0}, simReads(t, ix, 5, 30, 1), MapRunOptions{}); err == nil {
		t.Error("accepted zero mismatch budget")
	}
}

func TestTwoPassCostsMoreThanExact(t *testing.T) {
	ix := buildIndex(t, 30000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	reads, _ := mutatedReads(t, 30000, 100, 50, 1)
	exact, err := k.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := runKernel(k, twoPassWork{1}, reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if two.Profile.KernelCycles <= exact.Profile.KernelCycles {
		t.Error("two-pass run did not cost more kernel cycles than exact run")
	}
}

// TestTwoPassChecksumCoversPass2: a flipped bit in a pass-2 stratum is seen
// by both host-side defenses — the batch checksum and the sampled cross-check
// — and a corrupt roll that lands on a rescued read is caught. While pass 2
// ran after the checksum was taken, its results were outside both.
func TestTwoPassChecksumCoversPass2(t *testing.T) {
	ix := buildIndex(t, 40000)
	reads, _ := mutatedReads(t, 40000, 40, 50, 1) // pass 1 maps none of them
	clean, _ := NewDevice(Config{})
	ck, _ := clean.Program(ix)
	want, err := runKernel(ck, twoPassWork{1}, reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Rescued != len(reads) {
		t.Fatalf("%d of %d reads rescued; the test needs every corrupt roll to land on one", want.Rescued, len(reads))
	}
	work := twoPassWork{maxMismatches: 1}
	if err := want.VerifyChecksum(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if err := work.verify(ix, reads, want, 1); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for _, flip := range []func(m *fmindex.ApproxMatch){
		func(m *fmindex.ApproxMatch) { m.Range.Start ^= 1 },
		func(m *fmindex.ApproxMatch) { m.Range.End ^= 4 },
		func(m *fmindex.ApproxMatch) { m.Mismatches ^= 1 },
	} {
		tampered, err := runKernel(ck, twoPassWork{1}, reads, MapRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r := &tampered.Results[len(reads)/2]
		if len(r.Forward) > 0 {
			flip(&r.Forward[0])
		} else {
			flip(&r.Reverse[0])
		}
		if err := tampered.VerifyChecksum(); !errors.Is(err, ErrResultCorrupt) {
			t.Errorf("VerifyChecksum = %v on a flipped stratum bit, want ErrResultCorrupt", err)
		}
		if err := work.verify(ix, reads, tampered, 1); err == nil {
			t.Error("sampled cross-check passed a flipped stratum bit")
		}
	}

	plan, err := ParseFaultPlan("seed=1,persistent=0:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := NewDevice(Config{})
	dev.EnableFaults(plan, 0)
	k, _ := dev.Program(ix)
	run, err := runKernel(k, twoPassWork{1}, reads, MapRunOptions{})
	if err != nil {
		t.Fatalf("corruption must not error at the device: %v", err)
	}
	if err := run.VerifyChecksum(); !errors.Is(err, ErrResultCorrupt) {
		t.Errorf("VerifyChecksum = %v after a corrupt roll on a rescued read, want ErrResultCorrupt", err)
	}

	// The farm's version of TestMemSessionUnderFaults/corrupt: with the
	// cross-check off, the checksum alone rejects every corrupted batch.
	transient, err := ParseFaultPlan("seed=17,corrupt=0.3")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 3)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(transient, i)
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{BreakerThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		striped, err := farm.MapReadsTwoPassOpts(reads, 1, MapRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(striped.Results, want.Results) {
			t.Fatalf("round %d: a corrupted stratum leaked through the farm", round)
		}
	}
	var injected uint64
	for _, d := range devices {
		injected += d.FaultCounts()["corrupt"]
	}
	if stats := farm.Stats(); injected == 0 || stats.ChecksumMismatches != injected {
		t.Errorf("%d corrupted two-pass batches injected, %d rejected by checksum", injected, stats.ChecksumMismatches)
	}
}
