package fpga

import (
	"math/rand"
	"testing"

	"bwaver/internal/dna"
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
	res, err := k.MapReadsTwoPassOpts(reads, 1, MapRunOptions{})
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
		if res.Exact[i].Mapped() {
			continue
		}
		approx, ok := res.Approx[i]
		if !ok {
			t.Fatalf("read %d missing from approx results", i)
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
	res, err := k.MapReadsTwoPassOpts(reads, 2, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Approx) != 0 || res.Rescued != 0 {
		t.Errorf("approx pass ran for fully-exact workload: %+v", res)
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
	res, err := k.MapReadsTwoPassOpts(reads, 1, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescued != 0 {
		t.Errorf("%d random reads rescued at k=1", res.Rescued)
	}
	if len(res.Approx) != len(reads) {
		t.Errorf("approx pass covered %d reads, want all %d", len(res.Approx), len(reads))
	}
}

func TestTwoPassValidation(t *testing.T) {
	ix := buildIndex(t, 5000)
	d, _ := NewDevice(Config{})
	k, _ := d.Program(ix)
	if _, err := k.MapReadsTwoPassOpts(simReads(t, ix, 5, 30, 1), 0, MapRunOptions{}); err == nil {
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
	two, err := k.MapReadsTwoPassOpts(reads, 1, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if two.Profile.KernelCycles <= exact.Profile.KernelCycles {
		t.Error("two-pass run did not cost more kernel cycles than exact run")
	}
}
