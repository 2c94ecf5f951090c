package core

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bwaver/internal/align"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/readsim"
	"bwaver/internal/sam"
)

func buildMemIndex(t *testing.T, n int, seed int64) (*Index, dna.Seq) {
	t.Helper()
	// No simulated repeats: tests asserting on MAPQ need unique loci.
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: n, GC: 0.45, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(ref, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ix, ref
}

// mapReadMem maps one read as a batch of one.
func mapReadMem(ix *Index, read dna.Seq, opts MemOptions) (MemResult, error) {
	var dst [1]MemResult
	_, err := ix.MapReadsMemInto(dst[:], []dna.Seq{read}, opts, MapOptions{})
	return dst[0], err
}

// mapPairMem maps one mate pair as a paired batch of two, and makes the
// proper-pair call on it.
func mapPairMem(ix *Index, r1, r2 dna.Seq, opts MemOptions) (MemPairResult, error) {
	opts.Paired = true
	var dst [2]MemResult
	if _, err := ix.MapReadsMemInto(dst[:], []dna.Seq{r1, r2}, opts, MapOptions{}); err != nil {
		return MemPairResult{}, err
	}
	return MemPairFromResults(dst[0], dst[1], opts), nil
}

func TestChainSeeds(t *testing.T) {
	// Two seeds on one diagonal, one far away: two chains, collinear first.
	seeds := []Seed{
		{QStart: 0, QEnd: 20, RPos: 100},
		{QStart: 30, QEnd: 55, RPos: 130},
		{QStart: 10, QEnd: 28, RPos: 5000},
	}
	chains := chainSeeds(seeds, 10, 0)
	if len(chains) != 2 {
		t.Fatalf("%d chains, want 2", len(chains))
	}
	if chains[0].Score != 45 || len(chains[0].Seeds) != 2 {
		t.Errorf("best chain = %+v", chains[0])
	}
	if chains[0].Seeds[chains[0].Anchor].Len() != 25 {
		t.Errorf("anchor should be the longest seed, got %+v", chains[0].Seeds[chains[0].Anchor])
	}
	// Overlapping seeds count covered bases once.
	over := chainSeeds([]Seed{{0, 30, 50}, {20, 40, 70}}, 10, 0)
	if over[0].Score != 40 {
		t.Errorf("overlap-union score = %d, want 40", over[0].Score)
	}
	// maxChains truncates after score-sorting.
	if got := chainSeeds(seeds, 10, 1); len(got) != 1 || got[0].Score != 45 {
		t.Errorf("maxChains kept %+v", got)
	}
	if chainSeeds(nil, 10, 4) != nil {
		t.Error("empty seed set must chain to nil")
	}
}

func TestMapReadMemExact(t *testing.T) {
	ix, ref := buildMemIndex(t, 20000, 7)
	read := ref[5000:5100].Clone()
	res, err := mapReadMem(ix, read, MemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapped() {
		t.Fatal("exact read unmapped")
	}
	if res.Best.Pos != 5000 || !res.Best.Forward {
		t.Errorf("placement %+v, want forward 5000", res.Best)
	}
	if res.Best.CIGAR != "100M" {
		t.Errorf("CIGAR %q, want 100M", res.Best.CIGAR)
	}
	if res.Best.NM != 0 {
		t.Errorf("NM %d, want 0", res.Best.NM)
	}
	if res.Best.MapQ == 0 {
		t.Error("unique exact hit has MAPQ 0")
	}
	if res.Seeds == 0 || res.Chains == 0 || res.Extensions == 0 || res.SeedSteps == 0 || res.Cells == 0 {
		t.Errorf("pipeline counters empty: %+v", res)
	}
}

func TestMapReadMemReverseAndErrors(t *testing.T) {
	ix, ref := buildMemIndex(t, 20000, 8)
	rng := rand.New(rand.NewSource(1))
	read := ref[9000:9120].Clone()
	// Substitutions and a small deletion: the banded extension must absorb
	// both.
	for i := 0; i < 3; i++ {
		p := rng.Intn(len(read))
		read[p] = read[p].Complement()
	}
	read = append(read[:40:40], read[42:]...)
	rc := read.ReverseComplement()
	res, err := mapReadMem(ix, rc, MemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapped() {
		t.Fatal("reverse-strand read unmapped")
	}
	if res.Best.Forward {
		t.Errorf("strand wrong: %+v", res.Best)
	}
	if res.Best.Pos < 8995 || res.Best.Pos > 9005 {
		t.Errorf("position %d, want ~9000", res.Best.Pos)
	}
	if res.Best.NM == 0 {
		t.Error("mutated read reports NM 0")
	}
}

func TestMapReadMemUnmappedAndGuards(t *testing.T) {
	ix, _ := buildMemIndex(t, 20000, 9)
	rng := rand.New(rand.NewSource(2))
	junk := make(dna.Seq, 100)
	for i := range junk {
		junk[i] = dna.Base(rng.Intn(4))
	}
	res, err := mapReadMem(ix, junk, MemOptions{MinSeedLen: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapped() {
		t.Errorf("random read mapped: %+v", res.Best)
	}
	if _, err := mapReadMem(ix, junk, MemOptions{MinSeedLen: -1}); err == nil {
		t.Error("accepted negative MinSeedLen")
	}
	if _, err := mapReadMem(ix, junk, MemOptions{MaxInsert: -5, Paired: true}); err == nil {
		t.Error("accepted negative MaxInsert")
	}
	empty, err := mapReadMem(ix, nil, MemOptions{})
	if err != nil || empty.Mapped() {
		t.Errorf("empty read: %+v %v", empty, err)
	}
}

// A hyper-repetitive reference must trip the seed-hit guard rather than
// exploding the chain set.
func TestMapReadMemAmbiguityGuard(t *testing.T) {
	unit := dna.MustParseSeq("ACGTACGGTTACGTACCA")
	var ref dna.Seq
	for i := 0; i < 400; i++ {
		ref = append(ref, unit...)
	}
	ix, err := BuildIndex(ref, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	read := ref[100:160].Clone()
	res, err := mapReadMem(ix, read, MemOptions{MinSeedLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 0 {
		// Every seed occurs ~400 times; all must be guarded away.
		t.Errorf("%d seeds survived a cap of %d on a 400-copy repeat", res.Seeds, memMaxSeedHits)
	}
	if res.Mapped() {
		t.Errorf("guarded read still mapped: %+v", res.Best)
	}
}

func TestMapPairMemRescue(t *testing.T) {
	ix, ref := buildMemIndex(t, 30000, 10)
	r1 := ref[12000:12100].Clone()
	// R2 is the reverse-strand mate ~300 bases downstream, mutated heavily
	// enough that seeding fails (no SMEM above MinSeedLen) but the rescue
	// scan still finds it.
	mate := ref[12300:12400].Clone()
	for i := 10; i < len(mate); i += 12 {
		mate[i] = mate[i].Complement()
	}
	r2 := mate.ReverseComplement()
	opts := MemOptions{Paired: true, MinInsert: 100, MaxInsert: 600, MinSeedLen: 31}
	solo, err := mapReadMem(ix, r2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Mapped() {
		t.Skip("mate mapped without rescue; mutation pattern too mild for this seed")
	}
	pr, err := mapPairMem(ix, r1, r2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.R1.Mapped() {
		t.Fatal("anchor mate unmapped")
	}
	if !pr.R2.Mapped() || !pr.R2.Rescued {
		t.Fatalf("mate not rescued: %+v", pr.R2)
	}
	if pr.R2.Best.Forward {
		t.Error("rescued mate should be reverse strand")
	}
	if pr.R2.Best.Pos < 12290 || pr.R2.Best.Pos > 12310 {
		t.Errorf("rescued position %d, want ~12300", pr.R2.Best.Pos)
	}
	if !pr.Proper {
		t.Errorf("pair not proper: insert %d", pr.Insert)
	}
	if pr.R2.Best.MapQ > 30 {
		t.Errorf("rescued MAPQ %d above cap", pr.R2.Best.MapQ)
	}
}

func TestMapReadsMemBatchAndStats(t *testing.T) {
	ix, ref := buildMemIndex(t, 30000, 11)
	pairs, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: 20, ReadLength: 80, InsertMean: 300, InsertStdDev: 30,
		MappingRatio: 1, ErrorRate: 0.01, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Seq
	for _, p := range pairs {
		reads = append(reads, p.R1, p.R2)
	}
	results, stats, err := ix.MapReadsMem(reads, MemOptions{Paired: true, MinInsert: 100, MaxInsert: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reads) {
		t.Fatalf("%d results for %d reads", len(results), len(reads))
	}
	if stats.Reads != len(reads) {
		t.Errorf("stats.Reads = %d", stats.Reads)
	}
	if stats.MappedReads < len(reads)*8/10 {
		t.Errorf("only %d/%d simulated reads mapped", stats.MappedReads, len(reads))
	}
	if stats.Seeds == 0 || stats.Extensions == 0 || stats.Cells == 0 || stats.SeedSteps == 0 {
		t.Errorf("stats counters empty: %+v", stats)
	}
}

func TestMemRecordsValidSAM(t *testing.T) {
	ix, ref := buildMemIndex(t, 30000, 12)
	refs := ix.SAMRefSeqs()
	if len(refs) != 1 || refs[0].Name != "ref" || refs[0].Length != 30000 {
		t.Fatalf("SAMRefSeqs = %+v", refs)
	}
	var sb strings.Builder
	w, err := sam.NewWriter(&sb, refs)
	if err != nil {
		t.Fatal(err)
	}
	r1 := ref[4000:4100].Clone()
	r2 := ref[4250:4350].Clone().ReverseComplement()
	pr, err := mapPairMem(ix, r1, r2, MemOptions{Paired: true, MinInsert: 100, MaxInsert: 600})
	if err != nil {
		t.Fatal(err)
	}
	rec1, rec2 := ix.MemPairRecords("p1/1", "p1/2", r1, r2, pr)
	if rec1.Flag&sam.FlagPaired == 0 || rec1.Flag&sam.FlagFirstInPair == 0 {
		t.Errorf("rec1 flags %#x", rec1.Flag)
	}
	if rec2.Flag&sam.FlagSecondInPair == 0 {
		t.Errorf("rec2 flags %#x", rec2.Flag)
	}
	if !pr.Proper {
		t.Fatalf("expected proper pair, insert %d", pr.Insert)
	}
	if rec1.Flag&sam.FlagProperPair == 0 || rec2.Flag&sam.FlagProperPair == 0 {
		t.Error("proper flag missing")
	}
	if rec1.TLen != -rec2.TLen || rec1.TLen == 0 {
		t.Errorf("TLen %d / %d", rec1.TLen, rec2.TLen)
	}
	if rec1.RNext != "=" || rec2.RNext != "=" {
		t.Errorf("RNext %q / %q", rec1.RNext, rec2.RNext)
	}
	if err := w.Write(rec1); err != nil {
		t.Errorf("rec1 invalid: %v", err)
	}
	if err := w.Write(rec2); err != nil {
		t.Errorf("rec2 invalid: %v", err)
	}
	// Unmapped single-end record is also valid.
	junk := dna.MustParseSeq("ACGTACGTACGTACGTACGTACGTACGTACGT")
	res, err := mapReadMem(ix, junk, MemOptions{MinSeedLen: 33})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(ix.MemRecord("junk", junk, res)); err != nil {
		t.Errorf("unmapped record invalid: %v", err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2+1+3 { // @HD, @SQ, @PG + three records
		t.Errorf("%d SAM lines: %q", len(lines), sb.String())
	}
}

// TestEnsureMemBuildsOnlyWhatIsMissing: an index with a locate structure
// lends its FM-index to the bidirectional index as the forward direction;
// count-only indexes get a full build. Whichever way the state came to be — built, reloaded from a file,
// over a sampled suffix array — the batch maps identically, and the default
// configuration is charged the bytes the FPGA model charged before the
// forward direction was shared, with or without a prefix table on the exact
// index, less the 3n/4 the text's two bits a base save over one byte:
// 171 694 while it was charged a byte a base.
func TestEnsureMemBuildsOnlyWhatIsMissing(t *testing.T) {
	ref := testGenome(t, 20000)
	reads := memTestReads(t, ref, 40, 100)
	opts := MemOptions{Paired: true, MinInsert: 100, MaxInsert: 600}
	const pinnedMemBytes = 156694

	base := mustBuild(t, ref, IndexConfig{FtabK: 6})
	want, _, err := base.MapReadsMem(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.bwx")
	if err := base.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		ix     *Index
		shared bool
		bytes  int // 0: not pinned
	}{
		{"built", base, true, pinnedMemBytes},
		{"loaded", loaded, true, pinnedMemBytes},
		{"no-ftab", mustBuild(t, ref, IndexConfig{}), true, pinnedMemBytes},
		{"sampled", mustBuild(t, ref, IndexConfig{Locate: LocateSampled, SampleRate: 16, FtabK: 6}), true, 0},
		{"count-only", mustBuild(t, ref, IndexConfig{Locate: LocateNone}), false, pinnedMemBytes},
	} {
		got, _, err := tc.ix.MapReadsMem(reads, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: read %d maps as %+v, the built index says %+v", tc.name, i, got[i], want[i])
			}
		}
		if shared := tc.ix.mem.Load().bi.Forward() == tc.ix.fm; shared != tc.shared {
			t.Errorf("%s: forward direction shared = %v, want %v", tc.name, shared, tc.shared)
		}
		if tc.bytes != 0 && tc.ix.MemBytes() != tc.bytes {
			t.Errorf("%s: MemBytes %d, want %d", tc.name, tc.ix.MemBytes(), tc.bytes)
		}
	}
}

// reverseBytes is the footprint of the count-only index over ref read
// backwards: the seed-and-extend state's reverse direction without its
// prefix table.
func reverseBytes(t *testing.T, ref dna.Seq) int {
	t.Helper()
	reversed := make(dna.Seq, len(ref))
	for i, b := range ref {
		reversed[len(ref)-1-i] = b
	}
	return mustBuild(t, reversed, IndexConfig{Locate: LocateNone}).SizeBytes()
}

// TestEnsureMemSharesThePrefixTable: at k = 10 the SMEM search reads the
// exact path's table for the forward direction and the packed text the
// build attached, so EnsureMem grows an index by exactly the reverse
// direction and the reverse table. The
// interleaved short-pattern table it held before was 8·Σ_{l=1..10}(4^l+1) =
// 11 184 880 bytes; the reverse table is 6 990 508 fewer. Beside SizeBytes,
// HostBytes counts the packed text a build attaches, n/4 bytes.
func TestEnsureMemSharesThePrefixTable(t *testing.T) {
	ref := testGenome(t, 1<<20) // n = 4^10: order 10
	ix := mustBuild(t, ref, IndexConfig{FtabK: DefaultFtabK})
	before := ix.HostBytes()
	if got, want := before-ix.SizeBytes(), len(ref)/4; got != want {
		t.Errorf("HostBytes counts %d bytes beside SizeBytes, want the packed text's %d", got, want)
	}
	if err := ix.EnsureMem(); err != nil {
		t.Fatal(err)
	}
	const shortTable = 8 * ((1<<22-4)/3 + 10)
	if got, want := ix.HostBytes()-before, reverseBytes(t, ref)+shortTable-6990508; got != want {
		t.Errorf("EnsureMem grew HostBytes by %d, want %d", got, want)
	}
	if table := ix.FtabBytes(); table != shortTable-6990508 {
		t.Errorf("the order-10 table holds %d bytes, want %d", table, shortTable-6990508)
	}
}

// TestExtendSeedWindowMatchesWholeText: extension decodes the window of the
// packed text that align.Extender.ExtendSeed reads of the whole text, and
// its result — score, cells, coordinates, traceback — is the one the
// extender computes over the whole text: at the full band without z-drop,
// where every band cell is evaluated, and with the defaults, for queries
// with substitutions and a deletion anywhere, at the text's two ends too.
func TestExtendSeedWindowMatchesWholeText(t *testing.T) {
	ix, ref := buildMemIndex(t, 5000, 27)
	if err := ix.EnsureMem(); err != nil {
		t.Fatal(err)
	}
	st := ix.mem.Load()
	rng := rand.New(rand.NewSource(5))
	var sc memScratch
	var whole align.Extender
	opts := MemOptions{}.withDefaults()
	for trial := range 600 {
		n := 40 + rng.Intn(120)
		start := rng.Intn(len(ref) - n)
		switch trial % 4 {
		case 0:
			start = rng.Intn(20)
		case 1:
			start = len(ref) - n - rng.Intn(20)
		}
		query := ref[start : start+n].Clone()
		for k := rng.Intn(5); k > 0; k-- {
			query[rng.Intn(n)] = dna.Base(rng.Intn(4))
		}
		if trial%3 == 0 {
			i := 1 + rng.Intn(n-2)
			query = append(query[:i:i], query[i+1:]...)
		}
		qPos := rng.Intn(len(query) - 12)
		anchor := Seed{QStart: qPos, QEnd: qPos + 12, RPos: int32(start + qPos)}
		for _, fullBand := range []bool{true, false} {
			sc.setFullBand(fullBand)
			whole.ZDrop, whole.BandStart = sc.ext.ZDrop, sc.ext.BandStart
			got, err := st.extendSeed(&sc, query, anchor, opts)
			want, wantErr := whole.ExtendSeed(query, ref, anchor.QStart, int(anchor.RPos), anchor.Len(), opts.Band, align.DefaultScoring)
			if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %+v: window gives %+v (%v), the whole text %+v (%v)", trial, anchor, got, err, want, wantErr)
			}
			sc.ext.Reset()
			whole.Reset()
		}
	}
}

// TestEnsureMemHoldsTheTextOnce: the mem state reads the reference two bits
// a base. On a built index that is the packed text the build attached,
// shared, so EnsureMem adds no text; an index read from a file holds none,
// and the mem state holds its own, n/4 bytes. Each is below what a text of
// a byte a base cost beside it: by n and by 3n/4.
func TestEnsureMemHoldsTheTextOnce(t *testing.T) {
	ref := testGenome(t, 20000)
	built := mustBuild(t, ref, IndexConfig{FtabK: 5})
	loaded := roundTrip(t, built)
	grown := reverseBytes(t, ref) + 2*mustBuild(t, ref, IndexConfig{FtabK: 7}).FtabBytes()
	for _, tc := range []struct {
		name string
		ix   *Index
		text int
	}{{"built", built, 0}, {"loaded", loaded, len(ref) / 4}} {
		before := tc.ix.HostBytes()
		if err := tc.ix.EnsureMem(); err != nil {
			t.Fatal(err)
		}
		if got, want := tc.ix.HostBytes()-before, grown+tc.text; got != want {
			t.Errorf("%s: EnsureMem grew HostBytes by %d, want %d", tc.name, got, want)
		}
		if text := tc.ix.mem.Load().text; !text.Unpack().Equal(ref) {
			t.Errorf("%s: the mem state's text is not the reference", tc.name)
		}
	}
	if &built.mem.Load().text.Words()[0] != &built.fm.Text().Words()[0] {
		t.Error("the mem state of a built index holds a copy of its packed text")
	}
	if loaded.fm.Text().Len() != 0 {
		t.Error("EnsureMem attached a text to a loaded index")
	}
}

// TestEnsureMemOwnsAShallowTable: without an exact-path table, or with one
// of lower order than the SMEM search's (⌊log₄ 20 000⌋ = 7), the BiIndex
// builds a forward table of its own and HostBytes counts it beside the
// reverse one; the exact path's stays as it was.
func TestEnsureMemOwnsAShallowTable(t *testing.T) {
	ref := testGenome(t, 20000)
	table := mustBuild(t, ref, IndexConfig{FtabK: 7}).FtabBytes()
	rev := reverseBytes(t, ref)
	for _, k := range []int{0, 5} {
		ix := mustBuild(t, ref, IndexConfig{FtabK: k})
		before, exact := ix.HostBytes(), ix.FtabBytes()
		if err := ix.EnsureMem(); err != nil {
			t.Fatal(err)
		}
		if got, want := ix.HostBytes()-before, rev+2*table; got != want {
			t.Errorf("FtabK %d: EnsureMem grew HostBytes by %d, want %d", k, got, want)
		}
		if ix.FtabK() != k || ix.FtabBytes() != exact {
			t.Errorf("FtabK %d: EnsureMem left an order-%d table of %d bytes, had %d", k, ix.FtabK(), ix.FtabBytes(), exact)
		}
	}
}

// TestEnsureFtabAfterEnsureMem runs what bwaver-bench ablate does to a
// mem-ready index — drop the exact path's table, attach another — and
// checks the SMEM search keeps the table it took: rows and steps unchanged
// at a minimum length below and above the order, and HostBytes still
// counting the dropped table while the BiIndex holds it.
func TestEnsureFtabAfterEnsureMem(t *testing.T) {
	ref := testGenome(t, 20000)
	ix := mustBuild(t, ref, IndexConfig{FtabK: DefaultFtabK})
	if err := ix.EnsureMem(); err != nil {
		t.Fatal(err)
	}
	reads := memTestReads(t, ref, 20, 100)
	smems := func() ([]fmindex.SMEM, int) {
		var out []fmindex.SMEM
		total := 0
		for _, r := range reads {
			pattern := make([]uint8, len(r))
			for i, b := range r {
				pattern[i] = uint8(b)
			}
			for _, minLen := range []int{4, 19} {
				got, steps, err := ix.mem.Load().bi.SMEMsAppend(nil, pattern, minLen)
				if err != nil {
					t.Fatal(err)
				}
				out, total = append(out, got...), total+steps
			}
		}
		return out, total
	}
	want, wantSteps := smems()
	host, table := ix.HostBytes(), ix.FtabBytes()
	for _, k := range []int{0, 8} {
		if err := ix.EnsureFtab(k); err != nil {
			t.Fatal(err)
		}
		got, steps := smems()
		if steps != wantSteps || len(got) != len(want) {
			t.Fatalf("EnsureFtab(%d): %d SMEMs in %d steps, were %d in %d", k, len(got), steps, len(want), wantSteps)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("EnsureFtab(%d): SMEM %d = %+v, was %+v", k, i, got[i], want[i])
			}
		}
		if got, want := ix.HostBytes(), host+ix.FtabBytes(); got != want {
			t.Errorf("EnsureFtab(%d): HostBytes %d, want %d (%d before, the held order-10 table of %d bytes still counted)",
				k, got, want, host, table)
		}
	}
}

// TestMemWorkPinned holds the seed-and-extend pipeline's work counters on a
// fixed paired read set over a 1.16 Mbp E. coli-like reference, where most
// seeding windows occur once, to the figures the search produced when every
// extension ranked: SeedSteps drives the FPGA model's pass-1 cycles, so the
// SMEM search may change how it extends a match, never how many steps it
// counts. The served configuration (suffix array sampled at rate 8) walks LF
// to locate and must count the same.
func TestMemWorkPinned(t *testing.T) {
	ref, err := readsim.EColiLike(37, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: 200, ReadLength: 150, InsertMean: 400, InsertStdDev: 40,
		MappingRatio: 0.9, ErrorRate: 0.02, Seed: 38,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := make([]dna.Seq, 0, 2*len(sim))
	for _, p := range sim {
		reads = append(reads, p.R1, p.R2)
	}
	const seedSteps, seeds, cells = 80181, 1288, 718200
	for _, cfg := range []IndexConfig{
		{FtabK: DefaultFtabK},
		{Locate: LocateSampled, SampleRate: 8, FtabK: DefaultFtabK},
	} {
		_, stats, err := mustBuild(t, ref, cfg).MapReadsMem(reads, MemOptions{Paired: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.SeedSteps != seedSteps || stats.Seeds != seeds || stats.Cells != cells {
			t.Errorf("locate %v: %d seed steps, %d seeds, %d cells; want %d, %d, %d",
				cfg.Locate, stats.SeedSteps, stats.Seeds, stats.Cells, seedSteps, seeds, cells)
		}
	}
}
