package align

import (
	"math/rand"
	"testing"

	"bwaver/internal/dna"
)

// BenchmarkCIGARLongTraceback pins the CIGAR rendering cost for long
// tracebacks: the strings.Builder rewrite allocates a constant handful of
// times per call instead of once per run-length segment (the previous
// `out += fmt.Sprintf` version re-copied the whole string each segment,
// quadratic in traceback length).
func BenchmarkCIGARLongTraceback(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ops := make([]Op, 10000)
	kinds := []Op{OpMatch, OpInsert, OpDelete}
	for i := range ops {
		// Short runs so the encoder emits many segments.
		ops[i] = kinds[rng.Intn(3)]
	}
	res := Result{Ops: ops}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.CIGAR() == "*" {
			b.Fatal("unexpected empty CIGAR")
		}
	}
}

// BenchmarkExtenderExtendSeed pins the reusable Extender's steady state:
// after a warm call its grid and ops buffers are sized, so every subsequent
// extension — z-drop and adaptive band included — is allocation-free. The
// mem batch engine's zero-alloc gate rests on this. The full-band arm runs
// half-band 12 at once; bandstart-4 is the mem pipeline's shape, half-band
// 16 starting at 4, where a clean 150 bp arm stops after the first run's
// 1 350 cells.
func BenchmarkExtenderExtendSeed(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ref := make(dna.Seq, 100000)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	query := ref[40000:40150].Clone()
	for m := 0; m < 4; m++ {
		query[rng.Intn(len(query))] = dna.Base(rng.Intn(4))
	}
	for _, arm := range []struct {
		name            string
		band, bandStart int
	}{{"full-band", 12, 0}, {"bandstart-4", 16, 4}} {
		b.Run(arm.name, func(b *testing.B) {
			e := Extender{BandStart: arm.bandStart}
			res, err := e.ExtendSeed(query, ref, 60, 40060, 20, arm.band, DefaultScoring)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Once per read, as the mem pipeline does: without it the op
				// slab grows with every call.
				e.Reset()
				if _, err := e.ExtendSeed(query, ref, 60, 40060, 20, arm.band, DefaultScoring); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cells), "cells/op")
		})
	}
}

// BenchmarkExtenderSmithWaterman pins the pooled full-matrix fallback the
// mate-rescue path uses: steady state must not allocate either.
func BenchmarkExtenderSmithWaterman(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	ref := make(dna.Seq, 600)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	query := ref[200:300].Clone()
	for m := 0; m < 3; m++ {
		query[rng.Intn(len(query))] = dna.Base(rng.Intn(4))
	}
	var e Extender
	if _, err := e.SmithWaterman(query, ref, DefaultScoring); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Once per call, as rescue does: without it the op slab grows.
		e.Reset()
		if _, err := e.SmithWaterman(query, ref, DefaultScoring); err != nil {
			b.Fatal(err)
		}
	}
}
