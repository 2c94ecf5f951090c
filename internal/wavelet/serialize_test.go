package wavelet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"bwaver/internal/rrr"
)

func TestTreeSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, sigma := range []int{2, 4, 7, 16} {
		for _, p := range []rrr.Params{{BlockSize: 9, SuperblockFactor: 4}, rrr.DefaultParams} {
			data := randomData(rng, 3000, sigma)
			orig, err := New(data, sigma, p)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			n, err := orig.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			back, err := ReadTree(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != orig.Len() || back.Sigma() != orig.Sigma() || back.Levels() != orig.Levels() {
				t.Fatalf("metadata changed: %d/%d/%d", back.Len(), back.Sigma(), back.Levels())
			}
			for i := 0; i < len(data); i += 7 {
				if back.Access(i) != data[i] {
					t.Fatalf("Access(%d) changed after round trip", i)
				}
				for sym := 0; sym < sigma; sym++ {
					if back.Rank(uint8(sym), i) != orig.Rank(uint8(sym), i) {
						t.Fatalf("Rank(%d,%d) changed after round trip", sym, i)
					}
				}
			}
		}
	}
}

// TestReadTreeNodesAreConcrete: a tree read back (disk spill, journal
// replay, failover) holds every node's RRR sequence, exactly as a tree built
// in process does, and answers every rank alike.
func TestReadTreeNodesAreConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	data := randomData(rng, 2000, 5)
	built, err := New(data, 5, rrr.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{built, read} {
		nodes := 0
		var walk func(nd *node)
		walk = func(nd *node) {
			if nd == nil {
				return
			}
			nodes++
			if nd.seq == nil {
				t.Errorf("node [%d,%d) holds no sequence", nd.lo, nd.hi)
			}
			walk(nd.zero)
			walk(nd.on)
		}
		walk(tr.root)
		if nodes != 4 {
			t.Fatalf("walked %d nodes, want 4", nodes)
		}
	}
	lo, hi, lo2, hi2 := make([]int, 5), make([]int, 5), make([]int, 5), make([]int, 5)
	for trial := 0; trial < 300; trial++ {
		i := rng.Intn(len(data) + 1)
		j := min(i+rng.Intn(60), len(data))
		built.RankAllPair(i, j, lo, hi)
		read.RankAllPair(i, j, lo2, hi2)
		for sym := 0; sym < 5; sym++ {
			bi, bj := built.RankPair(uint8(sym), i, j)
			ri, rj := read.RankPair(uint8(sym), i, j)
			if bi != ri || bj != rj || lo[sym] != lo2[sym] || hi[sym] != hi2[sym] || bi != lo[sym] || bj != hi[sym] {
				t.Fatalf("built and read trees disagree at sym=%d (%d,%d)", sym, i, j)
			}
		}
	}
}

func TestReadTreeRejectsCorruption(t *testing.T) {
	data := randomData(rand.New(rand.NewSource(92)), 500, 4)
	orig, err := New(data, 4, rrr.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, cut := range []int{0, 4, 12, len(good) / 2, len(good) - 1} {
		if _, err := ReadTree(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("accepted tree truncated to %d bytes", cut)
		}
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Error("accepted bad magic")
	}
	// Corrupt the sigma field: must be rejected by structural checks.
	bad = append([]byte(nil), good...)
	bad[8] = 0xEE
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Error("accepted corrupted alphabet size")
	}
	// Any kind but RRR's 0 — 1 was plain bit-vectors — is refused by name.
	for _, kind := range []byte{1, 2, 0xFF} {
		bad = append([]byte(nil), good...)
		bad[12] = kind
		if _, err := ReadTree(bytes.NewReader(bad)); !errors.Is(err, ErrTreeKind) {
			t.Errorf("tree kind %d: got %v, want ErrTreeKind", kind, err)
		}
	}
}
