package bench

import (
	"io"
	"strings"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
)

// tiny is a scale small enough for unit tests: ~0.1% references.
var tiny = Scale{Ref: 0.002, Reads: 0.0002, SampleReads: 500, Seed: 1}

func TestScaleValidate(t *testing.T) {
	bad := []Scale{
		{Ref: 0, Reads: 0.5, SampleReads: 1000},
		{Ref: 1.5, Reads: 0.5, SampleReads: 1000},
		{Ref: 0.5, Reads: 0, SampleReads: 1000},
		{Ref: 0.5, Reads: 0.5, SampleReads: 10},
	}
	for _, s := range bad {
		if s.validate() == nil {
			t.Errorf("accepted invalid scale %+v", s)
		}
	}
	if err := tiny.validate(); err != nil {
		t.Errorf("rejected %+v: %v", tiny, err)
	}
}

func TestFig5And6Shapes(t *testing.T) {
	rows, err := Fig5And6(tiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * len(gridBlockSizes) * len(gridSuperblockFactors)
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	// Shape check from the paper: for fixed b, size decreases as sf grows.
	byKey := map[[3]int]Fig5Row{}
	for _, r := range rows {
		byKey[[3]int{int(r.Ref), r.B, r.SF}] = r
	}
	for _, refID := range []int{0, 1} {
		for _, b := range gridBlockSizes {
			prev := -1
			for _, sf := range gridSuperblockFactors {
				row := byKey[[3]int{refID, b, sf}]
				if prev >= 0 && row.totalBytes() > prev {
					t.Errorf("ref=%d b=%d: size grew from %d to %d as sf increased",
						refID, b, prev, row.totalBytes())
				}
				prev = row.totalBytes()
				if row.BuildTime <= 0 {
					t.Errorf("missing build time for b=%d sf=%d", b, sf)
				}
			}
		}
	}
	// At tiny reference sizes the 64 KiB shared rank table dominates, so
	// the net-saving claim is asserted separately at a reference size where
	// it is meaningful (TestCompressionAtRealisticSize).
}

// TestCompressionAtRealisticSize checks the paper's headline Fig. 5 claim —
// the structure beats 1 byte/base — once the reference is large enough that
// the shared table amortises.
func TestCompressionAtRealisticSize(t *testing.T) {
	genome, err := readsim.EColiLike(1, 0.1) // ~464 kbp
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(genome, core.IndexConfig{
		RRR:    rrr.Params{BlockSize: 15, SuperblockFactor: 100},
		Locate: core.LocateNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	total := st.StructureBytes + st.SharedBytes
	if total >= st.UncompressedBytes {
		t.Errorf("no compression at 464 kbp: structure %d B vs plain %d B", total, st.UncompressedBytes)
	}
}

func TestFig7Shapes(t *testing.T) {
	rows, err := Fig7(tiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Paper claim: FPGA mapping time grows with the mapping ratio.
	type key struct {
		ref   Reference
		b, sf int
	}
	series := map[key][]Fig7Row{}
	for _, r := range rows {
		k := key{r.Ref, r.B, r.SF}
		series[k] = append(series[k], r)
	}
	for k, rs := range series {
		for i := 1; i < len(rs); i++ {
			if rs[i].MappingRatio > rs[i-1].MappingRatio && rs[i].FPGATime < rs[i-1].FPGATime {
				t.Errorf("%v: FPGA time fell from %v to %v as ratio rose %v->%v",
					k, rs[i-1].FPGATime, rs[i].FPGATime, rs[i-1].MappingRatio, rs[i].MappingRatio)
			}
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	results, err := Table2(tiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d read-count blocks, want 3", len(results))
	}
	var prevCPUSlowdown float64
	for i, res := range results {
		if len(res.Entries) != 5 {
			t.Fatalf("block %d: %d entries, want 5", i, len(res.Entries))
		}
		if res.Entries[0].Config != "BWaveR FPGA" || res.Entries[0].Slowdown != 1 {
			t.Errorf("block %d: FPGA row wrong: %+v", i, res.Entries[0])
		}
		cpu := res.Entries[1]
		if cpu.Slowdown <= 1 {
			t.Errorf("block %d: CPU not slower than FPGA: %+v", i, cpu)
		}
		if cpu.PowerRatio <= cpu.Slowdown {
			t.Errorf("block %d: power ratio must exceed slowdown by the 135/25 factor", i)
		}
		// Paper's key trend: speedup grows with read count because the
		// fixed device overhead amortises.
		if i > 0 && cpu.Slowdown < prevCPUSlowdown {
			t.Errorf("block %d: CPU slowdown %v fell below previous %v — amortisation trend broken",
				i, cpu.Slowdown, prevCPUSlowdown)
		}
		prevCPUSlowdown = cpu.Slowdown
	}
}

func TestTable1SingleBlock(t *testing.T) {
	results, err := Table1(tiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("%d blocks, want 1", len(results))
	}
	if results[0].ReadLen != 35 || results[0].Ref != eColi {
		t.Errorf("table 1 metadata wrong: %+v", results[0])
	}
}

func TestPrinters(t *testing.T) {
	fig5, err := Fig5And6(tiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFig5(&sb, fig5)
	PrintFig6(&sb, fig5)
	if !strings.Contains(sb.String(), "Fig. 5") || !strings.Contains(sb.String(), "E.Coli") {
		t.Error("fig5/6 output incomplete")
	}
	table, err := Table1(tiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	PrintTable(&sb, "Table I", table)
	out := sb.String()
	// The paper's published Table I figures ride beside the measured ones.
	for _, want := range []string{"Table I", "BWaveR FPGA", "Bowtie2-like 16t", "power-eff",
		"3623 ms", "247214 ms", "68.20x", "176683 ms", "11542 ms", "3.18x"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestReferenceString(t *testing.T) {
	if eColi.String() != "E.Coli" || chr21.String() != "Human Chr.21" {
		t.Error("Reference.String wrong")
	}
}

func TestAblate(t *testing.T) {
	res, err := Ablate(tiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Occ) != 2 || len(res.Kernel) != 5 || len(res.Ftab) != 2 || len(res.Locate) != 3 || len(res.Exact) != 2 {
		t.Fatalf("ablation rows: %d occ, %d kernel, %d ftab, %d locate, %d exact",
			len(res.Occ), len(res.Kernel), len(res.Ftab), len(res.Locate), len(res.Exact))
	}
	byName := map[string]KernelAblationRow{}
	for _, r := range res.Kernel {
		byName[r.Name] = r
	}
	base := byName["baseline (paper)"]
	if seq := byName["sequential rank"]; seq.KernelCycles <= base.KernelCycles {
		t.Error("sequential rank not slower than baseline")
	}
	if pe4 := byName["4 PEs"]; pe4.KernelCycles >= base.KernelCycles {
		t.Error("4 PEs not faster than baseline")
	}
	if db := byName["double buffered"]; db.Total > base.Total {
		t.Error("double buffering did not help")
	}
	for _, r := range res.Occ {
		if r.SizeBytes <= 0 || r.RankTime <= 0 {
			t.Errorf("occ row %q not populated: %+v", r.Name, r)
		}
	}
	// Ablate itself fails if the table changes a result; with identical
	// results it must retire fewer kernel cycles, at the cost of its bytes.
	ftabOff, ftabOn := res.Ftab[0], res.Ftab[1]
	if ftabOff.TableBytes != 0 || ftabOn.TableBytes <= 0 {
		t.Errorf("prefix table bytes: off %d, on %d", ftabOff.TableBytes, ftabOn.TableBytes)
	}
	if ftabOn.KernelCycles >= ftabOff.KernelCycles {
		t.Errorf("prefix table on: %d kernel cycles, off %d — no cycle reduction", ftabOn.KernelCycles, ftabOff.KernelCycles)
	}
	if ftabOff.KernelCycles != base.KernelCycles {
		t.Errorf("prefix table off: %d kernel cycles, the paper kernel %d", ftabOff.KernelCycles, base.KernelCycles)
	}
	full, sampled8, sampled32 := res.Locate[0], res.Locate[1], res.Locate[2]
	if !(sampled32.IndexBytes < sampled8.IndexBytes && sampled8.IndexBytes < full.IndexBytes) {
		t.Errorf("index bytes: full %d, sampled-8 %d, sampled-32 %d — sampling must shrink the index",
			full.IndexBytes, sampled8.IndexBytes, sampled32.IndexBytes)
	}
	for _, r := range res.Locate {
		if r.PerRead <= 0 {
			t.Errorf("locate row %q has no time", r.Name)
		}
	}
	// Finishing on the text retires the ranked search's steps.
	ranked, onText := res.Exact[0], res.Exact[1]
	if ranked.KernelCycles != onText.KernelCycles || ranked.KernelCycles != ftabOn.KernelCycles {
		t.Errorf("exact search: ranked %d kernel cycles, on the text %d, the prefix table row %d",
			ranked.KernelCycles, onText.KernelCycles, ftabOn.KernelCycles)
	}
	if ranked.HostPerRead <= 0 || onText.HostPerRead <= 0 {
		t.Errorf("exact rows have no time: %+v", res.Exact)
	}
	var sb strings.Builder
	PrintAblation(&sb, res)
	for _, want := range []string{"checkpoint", "sequential rank", "k=10", "sampled SA, rate 32", "ranked (paper)", "finishes on text"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}
