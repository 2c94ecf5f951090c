package fmindex

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func ftabTestIndex(t *testing.T, n int, seed int64) (*Index, []uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	text := buildText(rng, n)
	ix := buildWith(t, text, func(d []uint8) (OccProvider, error) {
		return NewWaveletOcc(d, 4, testParams)
	}, fullSAOpts)
	return ix, text
}

// TestBuildFtabMatchesCount is the core contract: every entry of the table —
// living or dead — equals what the plain backward search returns on that
// k-mer, bit for bit. Dead entries must carry the exact range produced at
// the first death step, not just any empty range, because SearchWithFtabSteps
// returns them verbatim.
func TestBuildFtabMatchesCount(t *testing.T) {
	ix, _ := ftabTestIndex(t, 300, 11)
	for _, k := range []int{1, 2, 3, 5} {
		ftab, err := ix.BuildFtab(k)
		if err != nil {
			t.Fatalf("BuildFtab(%d): %v", k, err)
		}
		if ftab.K() != k || ftab.entries() != 1<<(2*k) {
			t.Fatalf("k=%d: K()=%d Entries()=%d", k, ftab.K(), ftab.entries())
		}
		kmer := make([]uint8, k)
		for key := 0; key < ftab.entries(); key++ {
			for i := 0; i < k; i++ {
				kmer[i] = uint8(key >> (2 * (k - 1 - i)) & 3)
			}
			want := ix.Count(kmer)
			if got := ftab.lookup(key); got != want {
				t.Fatalf("k=%d key=%d kmer=%v: table %+v, plain search %+v",
					k, key, kmer, got, want)
			}
		}
	}
}

func TestBuildFtabRejectsBadK(t *testing.T) {
	ix, _ := ftabTestIndex(t, 64, 12)
	for _, k := range []int{0, -1, MaxFtabK + 1} {
		if _, err := ix.BuildFtab(k); err == nil {
			t.Errorf("BuildFtab(%d) accepted", k)
		}
	}
}

// TestSearchWithFtabPaths drives all four lookup outcomes — table hit on a
// living k-mer, hit on a dead k-mer, miss on an out-of-alphabet suffix
// symbol, and a read shorter than k — and checks both the result equality
// and the counter bookkeeping.
func TestSearchWithFtabPaths(t *testing.T) {
	ix, text := ftabTestIndex(t, 400, 13)
	const k = 4
	ftab, err := ix.BuildFtab(k)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetFtab(ftab)
	if ix.Ftab() != ftab {
		t.Fatal("Ftab() does not return the attached table")
	}

	check := func(pattern []uint8) {
		t.Helper()
		got, _ := ix.SearchWithFtabSteps(pattern)
		if want := ix.Count(pattern); got != want {
			t.Fatalf("pattern %v: ftab %+v != plain %+v", pattern, got, want)
		}
	}
	check(text[10:30])                     // living hit
	check([]uint8{0, 1, 2, 3, 9, 9, 9, 9}) // suffix k-mer with sym>=4: stored death range
	check([]uint8{9, 9, 0, 1, 2, 3})       // miss: can't encode the suffix, falls back
	check(text[5 : 5+k-1])                 // short read, falls back
	check(nil)                             // empty pattern

	st := ftab.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Short != 2 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 2 short", st)
	}

	// Steps accounting: a dead-suffix hit answers in one modeled cycle.
	if _, steps := ix.SearchWithFtabSteps([]uint8{0, 0, 9, 9, 9, 9}); steps != 1 {
		t.Errorf("dead table hit took %d steps, want 1", steps)
	}

	ix.SetFtab(nil)
	got, _ := ix.SearchWithFtabSteps(text[10:30])
	if want := ix.Count(text[10:30]); got != want {
		t.Errorf("no table: %+v != %+v", got, want)
	}
}

func TestFtabSerializeRoundTrip(t *testing.T) {
	ix, _ := ftabTestIndex(t, 200, 14)
	ftab, err := ix.BuildFtab(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := ftab.WriteTo(&buf); err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo: n=%d err=%v (buffered %d)", n, err, buf.Len())
	}
	back, err := ReadFtab(bytes.NewReader(buf.Bytes()), ix)
	if err != nil {
		t.Fatal(err)
	}
	if back.K() != ftab.K() || back.entries() != ftab.entries() || back.SizeBytes() != ftab.SizeBytes() {
		t.Fatalf("shape changed: %d/%d/%d vs %d/%d/%d",
			back.K(), back.entries(), back.SizeBytes(), ftab.K(), ftab.entries(), ftab.SizeBytes())
	}
	for key := 0; key < ftab.entries(); key++ {
		if back.lookup(key) != ftab.lookup(key) {
			t.Fatalf("entry %d changed across serialization", key)
		}
	}

	// Corrupt magic must be rejected.
	raw := buf.Bytes()
	raw[0] ^= 0xff
	if _, err := ReadFtab(bytes.NewReader(raw), ix); err == nil {
		t.Error("accepted corrupt magic")
	}
}

// TestFtabValidateRejectsForeignTable: loading checks a table against the
// index it is read for, so one built over another text does not load.
func TestFtabValidateRejectsForeignTable(t *testing.T) {
	ix, _ := ftabTestIndex(t, 200, 15)
	ftab, err := ix.BuildFtab(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ftab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Against a shorter text, and against another text of the same length,
	// the stored ranges are not the bounds the index implies.
	for _, other := range []struct {
		n    int
		seed int64
	}{{40, 16}, {200, 17}} {
		foreign, _ := ftabTestIndex(t, other.n, other.seed)
		if _, err := ReadFtab(bytes.NewReader(buf.Bytes()), foreign); err == nil {
			t.Errorf("ReadFtab accepted a table built over another text (n=%d)", other.n)
		}
	}
}

// TestTableBytes pins the prefix tables' footprint: an Ftab holds one int32
// bound per k-mer plus a terminal, and a fixed part; a BiIndex over a
// forward direction without a table holds two, one per direction.
func TestTableBytes(t *testing.T) {
	ix, _ := ftabTestIndex(t, 3000, 16)
	for k := 1; k <= 7; k++ {
		f, err := ix.BuildFtab(k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := f.SizeBytes(), 4*(pow4(k)+1)+ftabFixedBytes; got != want {
			t.Errorf("k=%d: SizeBytes %d, want %d", k, got, want)
		}
	}
	bi := buildBi(t, buildText(rand.New(rand.NewSource(17)), 5000))
	if bi.k != 6 || bi.ftab.K() != 6 || bi.rtab.K() != 6 {
		t.Fatalf("order %d with tables of order %d and %d, want 6", bi.k, bi.ftab.K(), bi.rtab.K())
	}
	if got, want := bi.SizeBytes(), bi.fwd.SizeBytes()+bi.rev.SizeBytes()+2*(4*(pow4(6)+1)+ftabFixedBytes); got != want {
		t.Errorf("BiIndex SizeBytes %d, want %d", got, want)
	}
}

// TestReadFtabRejectsInconsistentTables: a payload whose ranges are in
// bounds but are not the table the index implies must not load. Swapped
// entries and a short range are core.TestReadIndexRefusesInconsistentFtab's;
// here, a dead k-mer moved to another empty range, and the first range
// reaching down onto the row of the suffix A where every k-mer lives, which
// only the first bound tells.
func TestReadFtabRejectsInconsistentTables(t *testing.T) {
	text := buildText(rand.New(rand.NewSource(18)), 300)
	text[len(text)-1] = 0
	ix := buildWith(t, text, func(d []uint8) (OccProvider, error) {
		return NewWaveletOcc(d, 4, testParams)
	}, fullSAOpts)
	for _, k := range []int{2, 5} {
		ftab, err := ix.BuildFtab(k)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ftab.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		payload := buf.Bytes()
		// The k-mer to corrupt: at k = 2 the first, at k = 5 the first dead.
		key := 0
		for k == 5 && !ftab.lookup(key).Empty() {
			key++
		}
		r := ftab.lookup(key)
		if r.Empty() != (k == 5) {
			t.Fatalf("k=%d: k-mer %d holds %+v", k, key, r)
		}
		shift := -1 // the first range one row lower
		if r.Empty() {
			shift = 1 // the death range one row higher
		}
		for column, v := range []int{r.Start, r.End} {
			if column == 0 || r.Empty() {
				off := 8 + 4*(column*ftab.entries()+key)
				binary.LittleEndian.PutUint32(payload[off:], uint32(int32(v+shift)))
			}
		}
		if _, err := ReadFtab(bytes.NewReader(payload), ix); err == nil {
			t.Errorf("k=%d: ReadFtab accepted k-mer %d moved from %+v", k, key, r)
		}
	}
}
