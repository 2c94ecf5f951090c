package fmindex

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bwaver/internal/bwt"
	"bwaver/internal/dna"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
)

// benchIndex builds an index over 256 kbp of repeat-structured DNA with the
// requested provider.
func benchIndex(b *testing.B, mk func(data []uint8) (OccProvider, error)) (*Index, []uint8) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	pattern := buildText(rng, 9973)
	text := make([]uint8, 0, 1<<18)
	for len(text) < 1<<18 {
		text = append(text, pattern...)
		text = append(text, buildText(rng, 503)...)
	}
	sa, err := suffixarray.Build(text, 4)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := bwt.Transform(text, sa)
	if err != nil {
		b.Fatal(err)
	}
	occ, err := mk(tr.Data)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := New(tr, 4, occ, Options{SA: sa})
	if err != nil {
		b.Fatal(err)
	}
	return ix, text
}

func BenchmarkBackwardSearch(b *testing.B) {
	providers := []struct {
		name string
		mk   func(data []uint8) (OccProvider, error)
	}{
		{"wavelet-rrr", func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, rrr.DefaultParams) }},
		{"checkpoint", func(d []uint8) (OccProvider, error) { return NewCheckpointOcc(d) }},
	}
	for _, p := range providers {
		ix, text := benchIndex(b, p.mk)
		rng := rand.New(rand.NewSource(4))
		patterns := make([][]uint8, 256)
		for i := range patterns {
			s := rng.Intn(len(text) - 40)
			patterns[i] = text[s : s+40]
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(40)
			for i := 0; i < b.N; i++ {
				ix.Count(patterns[i%len(patterns)])
			}
		})
	}
}

func BenchmarkLocate(b *testing.B) {
	ix, text := benchIndex(b, func(d []uint8) (OccProvider, error) {
		return NewWaveletOcc(d, 4, rrr.DefaultParams)
	})
	r := ix.Count(text[100:130])
	if r.Empty() {
		b.Fatal("bench pattern not found")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Locate(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocateAppend is the allocation-free counterpart, through the full
// suffix array and through samples at rates 8, 16 and 32, where each row
// walks LF (one tree descent a step) to its nearest sample. The caller's slab
// absorbs every position, so every arm reports 0 allocs/op.
func BenchmarkLocateAppend(b *testing.B) {
	full, text := benchIndex(b, func(d []uint8) (OccProvider, error) {
		return NewWaveletOcc(d, 4, rrr.DefaultParams)
	})
	r := full.Count(text[100:130])
	if r.Empty() {
		b.Fatal("bench pattern not found")
	}
	type arm struct {
		name string
		ix   *Index
	}
	arms := []arm{{"full", full}}
	for _, rate := range []int{8, 16, 32} {
		s, err := NewSampledSA(full.sa, rate)
		if err != nil {
			b.Fatal(err)
		}
		sampled := *full
		sampled.sa, sampled.sampled = nil, s
		arms = append(arms, arm{fmt.Sprintf("sampled-%d", rate), &sampled})
	}
	for _, a := range arms {
		b.Run(a.name, func(b *testing.B) {
			slab := make([]int32, 0, r.Count())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if slab, err = a.ix.LocateAppend(slab[:0], r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchWithFtab pits the prefix-table search against the plain
// backward search on the same 40 bp patterns.
func BenchmarkSearchWithFtab(b *testing.B) {
	ix, text := benchIndex(b, func(d []uint8) (OccProvider, error) {
		return NewWaveletOcc(d, 4, rrr.DefaultParams)
	})
	rng := rand.New(rand.NewSource(5))
	patterns := make([][]uint8, 256)
	for i := range patterns {
		s := rng.Intn(len(text) - 40)
		patterns[i] = text[s : s+40]
	}
	for _, k := range []int{0, 8, 10} {
		if k > 0 {
			ftab, err := ix.BuildFtab(k)
			if err != nil {
				b.Fatal(err)
			}
			ix.SetFtab(ftab)
		} else {
			ix.SetFtab(nil)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(40)
			for i := 0; i < b.N; i++ {
				ix.SearchWithFtabSteps(patterns[i%len(patterns)])
			}
		})
	}
}

// bench4M builds, once per test binary, a locating index over 4 Mbp of
// random DNA: its rank structure does not fit in cache.
var bench4M = sync.OnceValues(func() (*Index, []uint8) {
	text := buildText(rand.New(rand.NewSource(7)), 1<<22)
	ix, err := buildDirection(text, 4, rrr.DefaultParams, true)
	if err != nil {
		panic(err)
	}
	return ix, text
})

// benchRepeats builds, once per test binary, a locating index over 1 Mbp
// of random DNA in which half the text is rewritten with copies of
// segments of 300–3000 bp, 1 to 15 copies of each, 1 % of a copy's bases
// substituted: matches of 2 to 16 occurrences, the ones the SMEM search
// locates and extends by reading the text.
var benchRepeats = sync.OnceValues(func() (*Index, []uint8) {
	rng := rand.New(rand.NewSource(8))
	text := buildText(rng, 1<<20)
	for rewritten := 0; rewritten < len(text)/2; {
		l := 300 + rng.Intn(2701)
		src := rng.Intn(len(text) - l)
		for range 1 + rng.Intn(15) {
			dst := rng.Intn(len(text) - l)
			copy(text[dst:dst+l], text[src:src+l])
			for j := dst; j < dst+l; j++ {
				if rng.Intn(100) == 0 {
					text[j] = uint8((int(text[j]) + 1 + rng.Intn(3)) % 4)
				}
			}
			rewritten += l
		}
	}
	ix, err := buildDirection(text, 4, rrr.DefaultParams, true)
	if err != nil {
		panic(err)
	}
	return ix, text
})

// BenchmarkSMEMs times the seeding search on 150 bp reads with 2 %
// substitutions, with the prefix tables and with every extension ranked
// until the match has few enough occurrences to be located; steps/op is the
// extension count, the same on both arms. The 256 kbp repeat-structured
// text has order 9 and tables that stay in cache; it repeats one unit about
// 25 times. The 4 Mbp random one has order 10 and 4 MiB tables that do not;
// its forward table is the exact path's, attached before the BiIndex is
// built, as EnsureMem finds it. The 1 Mbp one (1M/repeats, order 10) holds
// segments written 2 to 16 times, the matches located through the full
// suffix array and extended by reading the text at every occurrence. Every
// forward direction locates, as NewBiIndexOver requires: through the full
// suffix array, and on 4M/sampled-8 — the served configuration — through
// samples at rate 8, where entering a unique match walks LF and a repeated
// one stays ranked. Each table arm has a group-32 arm: the same patterns
// through SMEMsGroup, 32 at a time, whose steps/op must equal the table
// arm's; on 256k, whose loads hit cache, it prices the group's bookkeeping.
// Every arm searches all its patterns once before the timer starts, so that
// short runs compare warm arms with grown scratch, not a cold one with a
// warm one. Every arm cycles 256 patterns, whose lines on the 4 Mbp index
// (≈ 0.85 MB) stay in a 2 MiB L2 after one pass; the two 4 Mbp sizes
// therefore also run each arm under cold/, cycling 4 096 patterns (the
// first 256 of them the same), whose lines do not.
func BenchmarkSMEMs(b *testing.B) {
	small, smallText := benchIndex(b, func(d []uint8) (OccProvider, error) {
		return NewWaveletOcc(d, 4, rrr.DefaultParams)
	})
	large, largeText := bench4M()
	repeats, repeatsText := benchRepeats()
	if large.Ftab() == nil {
		ftab, err := large.BuildFtab(10)
		if err != nil {
			b.Fatal(err)
		}
		large.SetFtab(ftab)
	}
	samples, err := NewSampledSA(large.sa, 8)
	if err != nil {
		b.Fatal(err)
	}
	sampled := *large
	sampled.sa, sampled.sampled = nil, samples
	for _, size := range []struct {
		name string
		fwd  *Index
		text []uint8
		cold bool
	}{
		{"256k", small, smallText, false},
		{"4M", large, largeText, true},
		{"4M/sampled-8", &sampled, largeText, true},
		{"1M/repeats", repeats, repeatsText, false},
	} {
		bi, err := NewBiIndexOver(size.fwd, dna.Pack(size.text), rrr.DefaultParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSMEMArms(b, size.name, bi, smemPatterns(size.text, 256))
		if size.cold {
			benchSMEMArms(b, size.name+"/cold", bi, smemPatterns(size.text, 4096))
		}
	}
}

// smemPatterns draws n 150 bp patterns from text with 2 % substitutions;
// the first patterns of a longer draw are those of a shorter one.
func smemPatterns(text []uint8, n int) [][]uint8 {
	rng := rand.New(rand.NewSource(6))
	reads := make([][]uint8, n)
	for i := range reads {
		s := rng.Intn(len(text) - 150)
		reads[i] = append([]uint8(nil), text[s:s+150]...)
		for j := range reads[i] {
			if rng.Intn(50) == 0 {
				reads[i][j] = uint8((int(reads[i][j]) + 1 + rng.Intn(3)) % 4)
			}
		}
	}
	return reads
}

// benchSMEMArms runs BenchmarkSMEMs' three arms over reads under name: the
// search with the tables, ranked, and with the tables in groups of 32.
func benchSMEMArms(b *testing.B, name string, bi *BiIndex, reads [][]uint8) {
	var err error
	for _, arm := range []struct {
		name string
		bi   *BiIndex
	}{{fmt.Sprintf("table-k=%d", bi.k), bi}, {"ranked", withoutShort(bi)}} {
		b.Run(name+"/"+arm.name, func(b *testing.B) {
			var smems []SMEM
			for _, read := range reads { // as the group arm: warm, scratch grown
				if smems, _, err = arm.bi.SMEMsAppend(smems[:0], read, 19); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				var n int
				if smems, n, err = arm.bi.SMEMsAppend(smems[:0], reads[i%len(reads)], 19); err != nil {
					b.Fatal(err)
				}
				steps += n
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
	// The table arm again, the same patterns searched 32 at a time in
	// lock step; an op is still one pattern.
	b.Run(fmt.Sprintf("%s/table-k=%d/group-32", name, bi.k), func(b *testing.B) {
		var g Group
		for lo := 0; lo < len(reads); lo += 32 { // warm, scratch grown
			if err := bi.SMEMsGroup(&g, reads[lo:lo+32], 19); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		steps := 0
		for done := 0; done < b.N; {
			lo := done % len(reads)
			group := reads[lo:min(lo+32, lo+b.N-done)]
			if err := bi.SMEMsGroup(&g, group, 19); err != nil {
				b.Fatal(err)
			}
			for p := range group {
				_, n, err := g.Result(p)
				if err != nil {
					b.Fatal(err)
				}
				steps += n
			}
			done += len(group)
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
}

// BenchmarkCountApprox times the k-mismatch search and reports its
// backward-search steps per pattern: 35 bp with one substitution at k = 0,
// 1, 2 over the 256 kbp text, and 35 bp and 100 bp patterns, each with one
// substitution, at k = 1 and 2 over the 4 Mbp text, whose rank structure
// does not fit in cache. Each search appends into the last one's strata.
func BenchmarkCountApprox(b *testing.B) {
	small, smallText := benchIndex(b, func(d []uint8) (OccProvider, error) {
		return NewWaveletOcc(d, 4, rrr.DefaultParams)
	})
	large, largeText := bench4M()
	type arm struct {
		name    string
		ix      *Index
		pattern []uint8
		k       int
	}
	withMismatch := func(text []uint8, at, n int) []uint8 {
		p := append([]uint8(nil), text[at:at+n]...)
		p[n/2] ^= 1
		return p
	}
	var arms []arm
	for _, k := range []int{0, 1, 2} {
		arms = append(arms, arm{fmt.Sprintf("256k/35bp/k=%d", k), small, withMismatch(smallText, 5000, 35), k})
	}
	for _, n := range []int{35, 100} {
		for _, k := range []int{1, 2} {
			arms = append(arms, arm{fmt.Sprintf("4M/%dbp/k=%d", n, k), large, withMismatch(largeText, 1<<21, n), k})
		}
	}
	for _, a := range arms {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			var matches []ApproxMatch
			steps := 0
			for i := 0; i < b.N; i++ {
				var n int
				var err error
				if matches, n, err = a.ix.CountApproxSteps(matches[:0], a.pattern, a.k); err != nil {
					b.Fatal(err)
				}
				steps += n
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkFtabLookup prices the table's parts on the 4 Mbp random index
// with its k = 10 table, whose 4 MiB of bounds do not fit a 2 MiB L2:
// lookup reads the range of a living k-mer, cycling 65 536 keys taken from
// the text; key/bytes reads a 100 bp pattern's key symbol by symbol
// (Ftab.key, which every search uses), key/word off the pattern's last 32
// symbols packed eight to a load (pack, then wordKey): slower, so the
// searches do not use it. The key arms cycle 256 patterns that stay in
// cache, as a chunk's freshly encoded patterns do.
func BenchmarkFtabLookup(b *testing.B) {
	ix, text := bench4M()
	f, err := ix.BuildFtab(10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n, m = 1 << 16, 100
	keys, patterns := make([]int, n), make([][]uint8, 256)
	for i := range keys {
		s := rng.Intn(len(text) - m)
		keys[i], _ = f.key(text[s : s+m])
		if i < len(patterns) {
			patterns[i] = slices.Clone(text[s : s+m])
		}
	}
	sink := 0
	b.Run("lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += f.Lookup(keys[i%n]).Start
		}
	})
	b.Run("key/bytes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			key, _ := f.key(patterns[i%len(patterns)])
			sink += key
		}
	})
	b.Run("key/word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			want, _ := pack(patterns[i%len(patterns)])
			sink += wordKey(f, want)
		}
	})
	benchSink = sink
}

// benchSink keeps BenchmarkFtabLookup's results live.
var benchSink int

// wordKey returns f's key of the last k symbols of one of
// packedText.before's words: their order reversed, two bits at a time,
// since the table orders k-mers first symbol highest.
func wordKey(f *Ftab, x uint64) int {
	x = x>>2&0x3333333333333333 | x&0x3333333333333333<<2
	x = x>>4&0x0f0f0f0f0f0f0f0f | x&0x0f0f0f0f0f0f0f0f<<4
	return int(bits.ReverseBytes64(x) & (1<<(2*f.k) - 1))
}
