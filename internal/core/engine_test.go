package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/readsim"
)

// checkEngineContract holds one workload's batch entry point to what the
// engine promises every workload: any worker count is bit-identical to the
// sequential per-read schedule want; every progress tick carries the batch
// total and (n, n) arrives exactly once, last; and, when the caller supplies
// the result slice, one of the wrong length is rejected.
func checkEngineContract[R any](t *testing.T, want []R, callerDst bool, batch func(dst []R, run MapOptions) error) {
	t.Helper()
	n := len(want)
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var ticks []int
		dst := make([]R, n)
		err := batch(dst, MapOptions{Workers: workers, ProgressEvery: 7, Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != n || done <= 0 || done > n {
				t.Errorf("workers=%d: progress (%d, %d) outside a batch of %d", workers, done, total, n)
			}
			ticks = append(ticks, done)
		}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if !reflect.DeepEqual(dst[i], want[i]) {
				t.Fatalf("workers=%d read %d diverges from sequential:\n got %+v\nwant %+v", workers, i, dst[i], want[i])
			}
		}
		final := 0
		for _, d := range ticks {
			if d == n {
				final++
			}
		}
		if len(ticks) < 2 || ticks[len(ticks)-1] != n || final != 1 {
			t.Errorf("workers=%d: progress %v, want several ticks and (%d, %d) exactly once, last", workers, ticks, n, n)
		}
	}
	if callerDst {
		if err := batch(make([]R, n+1), MapOptions{}); err == nil {
			t.Error("length-mismatched result slice accepted")
		}
	}
}

// TestEngineContract is the engine-contract table for exact and k-mismatch
// mapping; the seed-and-extend rows, through the same check, are
// TestMapReadsMemIntoMatchesSequential.
func TestEngineContract(t *testing.T) {
	ref := testGenome(t, 20000)
	ix := mustBuild(t, ref, IndexConfig{FtabK: 4})
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 301, Length: 40, MappingRatio: 0.7, RevCompFraction: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := readsim.Seqs(sim)
	// Every other read carries one substitution, so the k-mismatch row has
	// strata to compare and the exact rows have unmapped reads.
	for i := 0; i < len(reads); i += 2 {
		reads[i] = reads[i].Clone()
		reads[i][i%40] = (reads[i][i%40] + 1) % 4
	}

	exact := make([]MapResult, len(reads))
	located := make([]MapResult, len(reads))
	approx := make([]ApproxResult, len(reads))
	for i, r := range reads {
		exact[i] = ix.MapRead(r)
		located[i] = exact[i]
		located[i].ForwardPositions, located[i].ReversePositions = rankedPositions(t, ix, r)
		if approx[i], err = ix.MapReadApprox(r, 1); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("exact", func(t *testing.T) {
		checkEngineContract(t, exact, true, func(dst []MapResult, run MapOptions) error {
			_, err := ix.MapReadsInto(dst, reads, run)
			return err
		})
	})
	t.Run("exact-plain", func(t *testing.T) {
		// The table-off mode reports the same ranges; only Steps may differ.
		plain := make([]MapResult, len(reads))
		for i := range plain {
			plain[i] = exact[i]
			_, fw := ix.fm.CountSteps(patternOf(reads[i]))
			_, rc := ix.fm.CountSteps(patternOf(reads[i].ReverseComplement()))
			plain[i].Steps = max(fw, rc)
		}
		checkEngineContract(t, plain, true, func(dst []MapResult, run MapOptions) error {
			_, err := ix.MapReadsIntoFtab(dst, reads, run, false)
			return err
		})
	})
	t.Run("exact-locate", func(t *testing.T) {
		checkEngineContract(t, located, true, func(dst []MapResult, run MapOptions) error {
			run.Locate = true
			_, err := ix.MapReadsInto(dst, reads, run)
			return err
		})
	})
	t.Run("mismatch1", func(t *testing.T) {
		checkEngineContract(t, approx, false, func(dst []ApproxResult, run MapOptions) error {
			res, err := ix.MapReadsApprox(reads, 1, run)
			copy(dst, res)
			return err
		})
	})
}

// TestMapReadsIntoMatchesMapReadLoop holds the grouped exact search of
// MapReadsInto, which advances a chunk's searches in lock step, to a loop of
// MapRead over a batch that mixes mapped and unmapped reads with reads
// shorter than the table's order, an empty one and reads holding a symbol
// outside the alphabet, in the table's window and before it: equal results,
// positions included, at 1 and 2 workers, and equal prefix-table counters.
func TestMapReadsIntoMatchesMapReadLoop(t *testing.T) {
	ref := testGenome(t, 20000)
	ix := mustBuild(t, ref, IndexConfig{FtabK: 8})
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 200, Length: 36, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := readsim.Seqs(sim)
	for i := range reads {
		switch i % 5 {
		case 1:
			reads[i] = reads[i][:1+i%9] // up to 9 bases, most below k
		case 2:
			reads[i] = reads[i].Clone()
			reads[i][i%36] = 4 // not a base: A, C, G or T
		}
	}
	reads = append(reads, dna.Seq{})
	// counted returns the table lookups since before.
	counted := func(before fmindex.FtabStats) fmindex.FtabStats {
		s := ix.FtabStats()
		return fmindex.FtabStats{Hits: s.Hits - before.Hits, Misses: s.Misses - before.Misses, Short: s.Short - before.Short}
	}

	before := ix.FtabStats()
	want := make([]MapResult, len(reads))
	for i, r := range reads {
		want[i] = ix.MapRead(r)
	}
	perRead := counted(before)
	// The positions a locating batch must give: one worker's, each result's
	// held to a scan of the reference.
	located := make([]MapResult, len(reads))
	if _, err := ix.MapReadsInto(located, reads, MapOptions{Workers: 1, Locate: true}); err != nil {
		t.Fatal(err)
	}
	for i, read := range reads {
		for o, got := range [2][]int32{located[i].ForwardPositions, located[i].ReversePositions} {
			pattern := read
			if o == 1 {
				pattern = read.ReverseComplement()
			}
			got = slices.Clone(got)
			slices.Sort(got)
			if want := scanPositions(ref, pattern); !slices.Equal(got, want) {
				t.Fatalf("read %d %v orientation %d: located %v, the reference holds it at %v", i, read, o, got, want)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		for _, locate := range []bool{false, true} {
			dst := make([]MapResult, len(reads))
			before := ix.FtabStats()
			if _, err := ix.MapReadsInto(dst, reads, MapOptions{Workers: workers, Locate: locate}); err != nil {
				t.Fatal(err)
			}
			if got := counted(before); got != perRead {
				t.Errorf("workers=%d locate=%v: batch counted %+v in the table, a MapRead loop %+v", workers, locate, got, perRead)
			}
			expect := want
			if locate {
				expect = located
			}
			for i := range reads {
				if !reflect.DeepEqual(dst[i], expect[i]) {
					t.Fatalf("workers=%d locate=%v read %d %v:\n got %+v\nwant %+v", workers, locate, i, reads[i], dst[i], expect[i])
				}
			}
		}
	}
}

// scanPositions returns where pattern occurs in ref, ascending: nowhere for
// the empty pattern, which maps nowhere.
func scanPositions(ref, pattern dna.Seq) []int32 {
	var at []int32
	for i := 0; len(pattern) > 0 && i+len(pattern) <= len(ref); i++ {
		if slices.Equal(ref[i:i+len(pattern)], pattern) {
			at = append(at, int32(i))
		}
	}
	return at
}

func patternOf(read dna.Seq) []uint8 {
	p := make([]uint8, len(read))
	for i, b := range read {
		p[i] = uint8(b)
	}
	return p
}

func TestMapReadsMemIntoMatchesSequential(t *testing.T) {
	ix, ref := buildMemIndex(t, 30000, 21)
	reads := memTestReads(t, ref, 45, 100)
	for _, tc := range []struct {
		name   string
		paired bool
		n      int // batch length, odd cases included
	}{
		{"paired", true, len(reads)},
		{"paired-odd", true, len(reads) - 1}, // odd paired batch: lone last read
		{"single", false, len(reads)},
		{"single-odd", false, len(reads) - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := reads[:tc.n]
			opts := MemOptions{Paired: tc.paired, MinInsert: 100, MaxInsert: 600}
			want := sequentialMem(t, ix, batch, opts)
			checkEngineContract(t, want, true, func(dst []MemResult, run MapOptions) error {
				stats, err := ix.MapReadsMemInto(dst, batch, opts, run)
				if err == nil && stats.Reads != len(batch) {
					t.Errorf("stats cover %d reads, want %d", stats.Reads, len(batch))
				}
				return err
			})
		})
	}
}

// TestEngineReturnsOnCancelOrError pins that a batch call comes back with the
// error — rather than never — for every workload at every worker count, when
// its context is cancelled before the call or from Progress mid-batch, and
// when a read fails. Each call runs on a goroutine so that a hang (the
// channel-fed pool MapReadsApprox had would block its feeder once every
// worker had left) fails the test instead of timing the package out.
func TestEngineReturnsOnCancelOrError(t *testing.T) {
	ix, ref := buildMemIndex(t, 30000, 22)
	reads := memTestReads(t, ref, 500, 60)
	returns := func(t *testing.T, call func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("batch call did not return")
			return nil
		}
	}
	workloads := []struct {
		name string
		call func(run MapOptions) error
	}{
		{"exact", func(run MapOptions) error {
			_, err := ix.MapReadsInto(make([]MapResult, len(reads)), reads, run)
			return err
		}},
		{"mismatch1", func(run MapOptions) error {
			_, err := ix.MapReadsApprox(reads, 1, run)
			return err
		}},
		{"mem-single", func(run MapOptions) error {
			_, err := ix.MapReadsMemInto(make([]MemResult, len(reads)), reads, MemOptions{}, run)
			return err
		}},
		{"mem-paired", func(run MapOptions) error {
			_, err := ix.MapReadsMemInto(make([]MemResult, len(reads)), reads, MemOptions{Paired: true}, run)
			return err
		}},
	}
	for _, w := range workloads {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", w.name, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				err := returns(t, func() error { return w.call(MapOptions{Context: ctx, Workers: workers}) })
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled before the call: returned %v", err)
				}

				ctx, cancel = context.WithCancel(context.Background())
				defer cancel()
				err = returns(t, func() error {
					return w.call(MapOptions{Context: ctx, Workers: workers, ProgressEvery: 8, Progress: func(done, _ int) {
						if done >= 16 {
							cancel()
						}
					}})
				})
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled mid-batch: returned %v", err)
				}
			})
		}
	}
	// A read that errors: every read of this batch does, on a negative budget.
	for _, workers := range []int{1, 4} {
		err := returns(t, func() error {
			_, err := ix.MapReadsApprox(reads, -1, MapOptions{Workers: workers})
			return err
		})
		if err == nil {
			t.Errorf("workers=%d: negative mismatch budget accepted", workers)
		}
	}
}
