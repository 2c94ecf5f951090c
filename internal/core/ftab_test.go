package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"bwaver/internal/readsim"
)

// v1HeaderPrefix is the byte length of the shared header fields before the
// v2-only ftabK word: magic(4) b(4) sf(4) flags(1) locate(1) sampleRate(4)
// primary(4).
const v1HeaderPrefix = 22

func TestBuildIndexWithFtab(t *testing.T) {
	ref := testGenome(t, 6000)
	ix := mustBuild(t, ref, IndexConfig{FtabK: 3})
	if ix.FtabK() != 3 {
		t.Fatalf("FtabK() = %d, want 3", ix.FtabK())
	}
	if ix.FtabBytes() != 4*((1<<6)+1)+64 {
		t.Errorf("FtabBytes() = %d for k=3", ix.FtabBytes())
	}
	st := ix.Stats()
	if st.FtabBytes != ix.FtabBytes() || st.FtabTime < 0 {
		t.Errorf("build stats not filled: %+v", st)
	}
	plain := mustBuild(t, ref, IndexConfig{})
	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 200, Length: 30, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		a, b := ix.MapRead(r.Seq), plain.MapRead(r.Seq)
		if a.Forward != b.Forward || a.Reverse != b.Reverse {
			t.Fatalf("ftab index disagrees with plain index on %v", r.Seq)
		}
	}
}

func TestFtabRoundTrip(t *testing.T) {
	ref := testGenome(t, 5000)
	orig := mustBuild(t, ref, IndexConfig{FtabK: 3})
	back := roundTrip(t, orig)
	if back.FtabK() != 3 || back.FtabBytes() != orig.FtabBytes() {
		t.Fatalf("ftab lost in serialization: k=%d bytes=%d", back.FtabK(), back.FtabBytes())
	}
	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 100, Length: 25, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		a, b := mapLocated(t, orig, r.Seq), mapLocated(t, back, r.Seq)
		if !sameResult(orig, a, b) {
			t.Fatalf("deserialized ftab index disagrees: %+v, built %+v", b, a)
		}
	}
}

// TestReadIndexV1Compat synthesizes the previous on-disk format — same
// stream minus the magic bump, the ftabK header word, and the ftab payload —
// and checks it still loads, with the table rebuildable on demand.
func TestReadIndexV1Compat(t *testing.T) {
	ref := testGenome(t, 4000)
	ix := mustBuild(t, ref, IndexConfig{}) // no ftab: payload matches v1
	var buf bytes.Buffer
	if _, err := ix.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v1 := make([]byte, 0, len(raw)-4)
	v1 = append(v1, raw[:v1HeaderPrefix]...)
	v1 = append(v1, raw[v1HeaderPrefix+4:]...) // drop the ftabK word
	binary.LittleEndian.PutUint32(v1[:4], indexMagicV1)

	back, err := readIndex(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 index rejected: %v", err)
	}
	if back.FtabK() != 0 || back.FtabBytes() != 0 {
		t.Fatalf("v1 index loaded with a table: k=%d", back.FtabK())
	}
	probe := ref[100:130]
	want := mapLocated(t, ix, probe)
	if got := mapLocated(t, back, probe); !sameResult(ix, want, got) {
		t.Fatalf("v1 index disagrees with original: %+v, built %+v", got, want)
	}
	// The table is rebuilt on demand for old files.
	if err := back.EnsureFtab(3); err != nil {
		t.Fatal(err)
	}
	if back.FtabK() != 3 {
		t.Fatalf("EnsureFtab did not attach: k=%d", back.FtabK())
	}
	if got := back.MapRead(probe); ix.FM().Canonical(got.Forward) != want.Forward || ix.FM().Canonical(got.Reverse) != want.Reverse {
		t.Fatal("rebuilt ftab changes results")
	}
}

func TestEnsureAndDropFtab(t *testing.T) {
	ref := testGenome(t, 3000)
	ix := mustBuild(t, ref, IndexConfig{})
	if ix.FtabK() != 0 {
		t.Fatal("unexpected default table")
	}
	if err := ix.EnsureFtab(2); err != nil {
		t.Fatal(err)
	}
	first := ix.FM().Ftab()
	if ix.FtabK() != 2 || first == nil {
		t.Fatalf("EnsureFtab(2): k=%d", ix.FtabK())
	}
	// Same order is a no-op, not a rebuild.
	if err := ix.EnsureFtab(2); err != nil {
		t.Fatal(err)
	}
	if ix.FM().Ftab() != first {
		t.Error("EnsureFtab(2) rebuilt an up-to-date table")
	}
	if err := ix.EnsureFtab(4); err != nil {
		t.Fatal(err)
	}
	if ix.FtabK() != 4 || ix.FM().Ftab() == first {
		t.Error("EnsureFtab(4) did not rebuild")
	}
	if err := ix.EnsureFtab(0); err != nil {
		t.Fatal(err)
	}
	if ix.FtabK() != 0 || ix.FtabBytes() != 0 {
		t.Errorf("EnsureFtab(0) left k=%d bytes=%d", ix.FtabK(), ix.FtabBytes())
	}
	if err := ix.EnsureFtab(-1); err != nil {
		t.Fatal(err)
	}
	if ix.FtabK() != 0 {
		t.Error("EnsureFtab(-1) attached a table")
	}
}

// TestMapReadsIntoMatchesMapReads pins the zero-allocation batch path to the
// allocating one: identical results, positions included, across worker
// counts — and nil (not empty) position slices for reads without matches.
func TestMapReadsIntoMatchesMapReads(t *testing.T) {
	ref := testGenome(t, 6000)
	ix := mustBuild(t, ref, IndexConfig{FtabK: 3})
	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 300, Length: 28, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := readsim.Seqs(reads)
	want, wantStats, err := ix.MapReads(seqs, MapOptions{Locate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		dst := make([]MapResult, len(seqs))
		stats, err := ix.MapReadsInto(dst, seqs, MapOptions{Locate: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if stats.MappedReads != wantStats.MappedReads || stats.TotalSteps != wantStats.TotalSteps {
			t.Fatalf("workers=%d: stats %+v != %+v", workers, stats, wantStats)
		}
		for i := range dst {
			if dst[i].Forward != want[i].Forward || dst[i].Reverse != want[i].Reverse {
				t.Fatalf("workers=%d read %d: ranges differ", workers, i)
			}
			if !equalPositions(dst[i].ForwardPositions, want[i].ForwardPositions) ||
				!equalPositions(dst[i].ReversePositions, want[i].ReversePositions) {
				t.Fatalf("workers=%d read %d: positions differ", workers, i)
			}
			if want[i].ForwardPositions == nil && dst[i].ForwardPositions != nil {
				t.Fatalf("workers=%d read %d: empty positions not nil", workers, i)
			}
		}
	}

	if _, err := ix.MapReadsInto(make([]MapResult, 1), seqs, MapOptions{}); err == nil {
		t.Error("accepted mismatched dst length")
	}
}

// TestMapReadsIntoZeroAlloc holds a warm batch to no allocation at all:
// count-only, and locating into the results of the previous batch, on a
// full and on a rate-8 sampled suffix array, both with the text attached, so
// that the searches finish on it and their group scratch is in use.
func TestMapReadsIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	ref := testGenome(t, 4000)
	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 400, Length: 30, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := readsim.Seqs(reads)
	full := mustBuild(t, ref, IndexConfig{FtabK: 3})
	sampled := mustBuild(t, ref, IndexConfig{FtabK: 3, Locate: LocateSampled, SampleRate: 8})
	for _, tc := range []struct {
		name   string
		ix     *Index
		locate bool
	}{
		{"count", full, false},
		{"locate/full", full, true},
		{"locate/sampled-8", sampled, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.ix.FM().Text().Len() == 0 {
				t.Fatal("index holds no text for its searches to finish on")
			}
			dst := make([]MapResult, len(seqs))
			run := func() {
				if _, err := tc.ix.MapReadsInto(dst, seqs, MapOptions{Workers: 1, Locate: tc.locate}); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the scratch pool and size every result's positions
			// The gate the mem engine is held to (TestMemBatchSteadyStateZeroAlloc):
			// nothing per read and nothing per batch.
			if avg := testing.AllocsPerRun(5, run); avg > 0 {
				t.Errorf("MapReadsInto allocates %.1f times per batch of %d reads, want 0", avg, len(seqs))
			}
		})
	}
}

func TestCacheKeyFtabK(t *testing.T) {
	ref := testGenome(t, 500)
	base := CacheKey(ref, nil, IndexConfig{})
	if CacheKey(ref, nil, IndexConfig{FtabK: 10}) == base {
		t.Error("ftab order not part of the cache key")
	}
	// Every non-positive order means "no table" and must share a key.
	if CacheKey(ref, nil, IndexConfig{FtabK: -3}) != base {
		t.Error("negative ftab order changed the key")
	}
}

// ftabCorruptions serializes ix, which carries a prefix table, and returns
// three streams the deserializer must refuse: two living k-mers' ranges
// swapped and one living range one row short — both in bounds, both
// consistent under the file trailer's CRC — and a stream whose header and
// payload claim order 12 and that ends inside the first column.
func ftabCorruptions(tb testing.TB, ix *Index) map[string][]byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := ix.writeTo(&buf); err != nil {
		tb.Fatal(err)
	}
	raw := buf.Bytes()
	at := bytes.Index(raw, binary.LittleEndian.AppendUint32(nil, 0x46544231)) // FTB1
	if ix.FM().Ftab() == nil || at < v1HeaderPrefix+4 {
		tb.Fatal("index has no prefix-table payload")
	}
	// The payload is the magic, the order k, then the 4^k range starts and
	// the 4^k inclusive range ends.
	keys := 1 << (2 * binary.LittleEndian.Uint32(raw[at+4:]))
	field := func(p []byte, key int, ends bool) []byte {
		off := at + 8 + 4*key
		if ends {
			off += 4 * keys
		}
		return p[off : off+4]
	}
	bound := func(key int, ends bool) int32 { return int32(binary.LittleEndian.Uint32(field(raw, key, ends))) }
	var living []int
	for key := range keys {
		if bound(key, true) > bound(key, false) {
			living = append(living, key)
		}
	}
	if len(living) < 2 {
		tb.Fatal("prefix table has fewer than two k-mers with two rows")
	}
	swapped := bytes.Clone(raw)
	for _, ends := range []bool{false, true} {
		a, b := field(swapped, living[0], ends), field(swapped, living[1], ends)
		var tmp [4]byte
		copy(tmp[:], a)
		copy(a, b)
		copy(b, tmp[:])
	}
	shifted := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(field(shifted, living[0], true), uint32(bound(living[0], true)-1))
	truncated := bytes.Clone(raw[:at+8+2*keys])
	binary.LittleEndian.PutUint32(truncated[v1HeaderPrefix:], 12)
	binary.LittleEndian.PutUint32(truncated[at+4:], 12)
	return map[string][]byte{"swapped": swapped, "shifted-end": shifted, "truncated-order-12": truncated}
}

// TestReadIndexRefusesInconsistentFtab: an in-bounds but wrong prefix table
// must not load, and a stream that claims a large table and ends early must
// fail having allocated about what it read, not what its header claims.
func TestReadIndexRefusesInconsistentFtab(t *testing.T) {
	ix := mustBuild(t, testGenome(t, 2000), IndexConfig{FtabK: 4})
	for name, data := range ftabCorruptions(t, ix) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readIndex(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: ReadIndex accepted the stream", name)
		}
		// The order-12 header claims 2·4^12 int32s (128 MiB); the stream
		// holds a few KiB, and the reader's chunks are 64 KiB.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: reading %d bytes allocated %d", name, len(data), alloc)
		}
	}
}
