package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
	"bwaver/internal/wavelet"
)

func roundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.writeTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := readIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestSerializeRoundTripConfigs(t *testing.T) {
	ref := testGenome(t, 8000)
	reads, _ := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 150, Length: 30, MappingRatio: 0.6, RevCompFraction: 0.5, Seed: 8,
	})
	configs := []IndexConfig{
		{},
		{Locate: LocateSampled, SampleRate: 8},
		{Locate: LocateNone},
		{RRR: rrr.Params{BlockSize: 9, SuperblockFactor: 3}},
	}
	for _, cfg := range configs {
		orig := mustBuild(t, ref, cfg)
		back := roundTrip(t, orig)
		if back.RefLength() != orig.RefLength() {
			t.Fatalf("cfg %+v: length changed", cfg)
		}
		if back.Config().RRR != orig.Config().RRR ||
			back.Config().Locate != orig.Config().Locate {
			t.Fatalf("cfg %+v: config changed to %+v", cfg, back.Config())
		}
		wantLocate := cfg.withDefaults().Locate != LocateNone
		for _, r := range reads {
			a, b := orig.MapRead(r.Seq), back.MapRead(r.Seq)
			if wantLocate {
				a, b = mapLocated(t, orig, r.Seq), mapLocated(t, back, r.Seq)
			}
			if !sameResult(orig, a, b) {
				t.Fatalf("cfg %+v: deserialized index disagrees: %+v, built %+v", cfg, b, a)
			}
		}
	}
}

// TestSerializeTinyReferences writes and reads back indexes of references
// of 1 to 30 bases at default parameters, with and without the default
// prefix table: the last RRR block of such a sequence is mostly padding,
// and its offset field still takes its class's full width.
func TestSerializeTinyReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 30; n++ {
		ref := make(dna.Seq, n)
		for i := range ref {
			ref[i] = dna.Base(rng.Intn(4))
		}
		for _, cfg := range []IndexConfig{{}, {FtabK: DefaultFtabK}} {
			orig := mustBuild(t, ref, cfg)
			back := roundTrip(t, orig)
			for lo := range n {
				read := ref[lo:min(n, lo+8)]
				if a, b := mapLocated(t, orig, read), mapLocated(t, back, read); !sameResult(orig, a, b) {
					t.Fatalf("%d bases %v, ftab %d: read %v maps to %+v read back, %+v built", n, ref, cfg.FtabK, read, b, a)
				}
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ref := testGenome(t, 4000)
	ix := mustBuild(t, ref, IndexConfig{})
	path := filepath.Join(t.TempDir(), "test.bwx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res := back.MapRead(ref[100:140])
	if !res.Mapped() {
		t.Error("loaded index failed to map")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bwx")); err == nil {
		t.Error("loading missing file should fail")
	}
}

func TestReadIndexRejectsCorruption(t *testing.T) {
	ref := testGenome(t, 3000)
	ix := mustBuild(t, ref, IndexConfig{})
	var buf bytes.Buffer
	if _, err := ix.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at several depths.
	for _, cut := range []int{0, 3, 10, 40, len(good) / 2, len(good) - 1} {
		if _, err := readIndex(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("accepted index truncated to %d bytes", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := readIndex(bytes.NewReader(bad)); err == nil {
		t.Error("accepted bad magic")
	}
	// Corrupted RRR class data: flip a byte inside the tree payload. The
	// reader must either error out or still produce a structurally valid
	// index — it must never panic.
	bad = append([]byte(nil), good...)
	bad[60] ^= 0x0F
	func() {
		defer func() {
			if recover() != nil {
				t.Error("ReadIndex panicked on corrupted payload")
			}
		}()
		readIndex(bytes.NewReader(bad))
	}()
	// A header whose flags byte is not 0, or a tree whose kind is not RRR's,
	// no longer loads as an RRR index: the config CacheKey, EnsureMem and
	// `bwaver stats` read must describe the tree.
	for _, c := range headerCorruptions(t, ix) {
		if _, err := readIndex(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Errorf("%s: ReadIndex error %v, want %v", c.name, err, c.want)
		}
	}
}

// Offsets into a 'BWX2' image: the flags byte follows magic, b and sf; the
// wavelet tree's kind byte follows the header (v1HeaderPrefix bytes and the
// ftabK word), the four symbol counts and the tree's magic, n and sigma.
const (
	flagsOffset    = 12
	treeKindOffset = v1HeaderPrefix + 4 + 16 + 12
)

// headerCorruption is an index image whose header or tree kind no longer
// describes the RRR tree it holds, and the error readIndex must name.
type headerCorruption struct {
	name string
	data []byte
	want error
}

// headerCorruptions sets, in ix's image, the flags byte to the retired
// plain-bit-vector bit, to bits never defined, and the tree kind to the
// retired plain kind.
func headerCorruptions(tb testing.TB, ix *Index) []headerCorruption {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := ix.writeTo(&buf); err != nil {
		tb.Fatal(err)
	}
	good := buf.Bytes()
	if good[flagsOffset] != 0 || good[treeKindOffset] != 0 ||
		binary.LittleEndian.Uint32(good[treeKindOffset-12:]) != 0x57565431 { // WVT1
		tb.Fatal("index image does not hold flags 0 and an RRR tree at the expected offsets")
	}
	set := func(off int, v byte) []byte {
		bad := bytes.Clone(good)
		bad[off] = v
		return bad
	}
	return []headerCorruption{
		{"flags-0x01", set(flagsOffset, 0x01), errIndexFlags},
		{"flags-0x02", set(flagsOffset, 0x02), errIndexFlags},
		{"flags-0x80", set(flagsOffset, 0x80), errIndexFlags},
		{"tree-kind-1", set(treeKindOffset, 1), wavelet.ErrTreeKind},
	}
}

// The trailer must reject every corruption class fail-closed: truncation at
// any depth, a single flipped bit in any section (header, wavelet tree,
// suffix array, ftab, contigs, trailer), and stale trailer-less files —
// including old BWX1 images — with an error matching errIndexIntegrity.
func TestLoadFileCorruptionMatrix(t *testing.T) {
	ref := testGenome(t, 6000)
	ix := mustBuild(t, ref, IndexConfig{FtabK: 4})
	contigs, err := NewContigSet([]string{"chrA", "chrB"}, []int{3000, 3000})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetContigs(contigs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "good.bwx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("control load failed: %v", err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		p := filepath.Join(dir, name+".bwx")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(p)
		if err == nil {
			t.Errorf("%s: load succeeded, want integrity failure", name)
			return
		}
		if !errors.Is(err, errIndexIntegrity) {
			t.Errorf("%s: error %v does not match ErrIndexIntegrity", name, err)
		}
	}

	// Truncations at several depths, including mid-trailer.
	for _, cut := range []int{0, 10, len(good) / 3, len(good) / 2, len(good) - trailerSize - 1, len(good) - 5, len(good) - 1} {
		check(fmt.Sprintf("trunc-%d", cut), good[:cut])
	}
	// One flipped bit in each section of the payload and in the trailer. The
	// offsets walk the file: header, tree, SA, ftab/contigs, trailer fields.
	payloadLen := len(good) - trailerSize
	for _, off := range []int{1, 8, payloadLen / 4, payloadLen / 2, 3 * payloadLen / 4, payloadLen - 2,
		payloadLen + 1, payloadLen + 6, payloadLen + 14} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x10
		check(fmt.Sprintf("flip-%d", off), bad)
	}

	// A stale trailer-less file (raw writeTo image, the pre-checksum layout).
	var raw bytes.Buffer
	if _, err := ix.writeTo(&raw); err != nil {
		t.Fatal(err)
	}
	check("stale-raw", raw.Bytes())
	staleErrPath := filepath.Join(dir, "stale-raw.bwx")
	if _, err := LoadFile(staleErrPath); err == nil || !errors.Is(err, errIndexIntegrity) {
		t.Errorf("stale file error = %v, want ErrIndexIntegrity", err)
	}
	// Same image with a BWX1 magic: an old-format file must also fail closed
	// at the trailer check, long before version sniffing.
	v1 := append([]byte(nil), raw.Bytes()...)
	binary.LittleEndian.PutUint32(v1[0:4], 0x42575831)
	check("stale-bwx1", v1)
}

// SaveFile must be atomic: no temp droppings after success, and a failed
// save (unwritable directory) must not clobber the existing file.
func TestSaveFileAtomic(t *testing.T) {
	ref := testGenome(t, 2000)
	ix := mustBuild(t, ref, IndexConfig{})
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.bwx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after save, want only the index", len(entries))
	}
	if err := ix.SaveFile(filepath.Join(dir, "missing-subdir", "ix.bwx")); err == nil {
		t.Error("save into a missing directory should fail")
	}
	if _, err := LoadFile(path); err != nil {
		t.Errorf("original file unreadable after failed save: %v", err)
	}
}

func TestSerializedSizeReasonable(t *testing.T) {
	ref := testGenome(t, 50000)
	ix := mustBuild(t, ref, IndexConfig{Locate: LocateNone})
	var buf bytes.Buffer
	if _, err := ix.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Without the SA the file should be in the ballpark of the structure
	// size (not the raw reference, not 10x larger).
	if buf.Len() > ix.Stats().StructureBytes*2+4096 {
		t.Errorf("serialized %d bytes for %d-byte structure", buf.Len(), ix.Stats().StructureBytes)
	}
}
