package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"bwaver/internal/fastx"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
)

func streamInput(t *testing.T, reads []readsim.Read, gz bool) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := fastx.NewWriter(&buf, fastx.FASTQ, gz)
	for _, r := range reads {
		if err := w.Write(&fastx.Record{ID: r.ID, Seq: []byte(r.Seq.String())}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// mapStream is MapStreamQC under the zero policy, which gates nothing.
func mapStream(ix *Index, r io.Reader, batchSize int, emit func(StreamResult) error) (MapStats, error) {
	stats, _, err := ix.MapStreamQC(r, qc.Policy{}, MapOptions{}, batchSize, emit)
	return stats, err
}

func TestMapStreamMatchesBatch(t *testing.T) {
	ref := testGenome(t, 20000)
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 1000, Length: 40, MappingRatio: 0.6, RevCompFraction: 0.5, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := mustBuild(t, ref, IndexConfig{})
	want, _, err := ix.MapReads(readsim.Seqs(sim), MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batchSize := range []int{0, 1, 7, 100, 5000} {
		var got []StreamResult
		stats, err := mapStream(ix, streamInput(t, sim, false), batchSize, func(r StreamResult) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("batch=%d: %v", batchSize, err)
		}
		if stats.Reads != len(sim) || len(got) != len(sim) {
			t.Fatalf("batch=%d: %d results for %d reads", batchSize, len(got), len(sim))
		}
		for i := range got {
			if got[i].ID != sim[i].ID {
				t.Fatalf("batch=%d: result %d out of order: %s vs %s", batchSize, i, got[i].ID, sim[i].ID)
			}
			if got[i].Res.Forward != want[i].Forward || got[i].Res.Reverse != want[i].Reverse {
				t.Fatalf("batch=%d: result %d differs from batch mapping", batchSize, i)
			}
		}
	}
}

func TestMapStreamGzip(t *testing.T) {
	ref := testGenome(t, 5000)
	sim, _ := readsim.Simulate(ref, readsim.ReadsConfig{Count: 100, Length: 30, MappingRatio: 1, Seed: 13})
	ix := mustBuild(t, ref, IndexConfig{})
	count := 0
	stats, err := mapStream(ix, streamInput(t, sim, true), 16, func(r StreamResult) error {
		count++
		if !r.Res.Mapped() {
			t.Errorf("read %s did not map", r.ID)
		}
		return nil
	})
	if err != nil || count != 100 || stats.MappedReads != 100 {
		t.Fatalf("gzip stream: count=%d stats=%+v err=%v", count, stats, err)
	}
}

func TestMapStreamEmptyInput(t *testing.T) {
	ix := mustBuild(t, testGenome(t, 1000), IndexConfig{})
	stats, err := mapStream(ix, strings.NewReader(""), 10, func(StreamResult) error {
		t.Error("emit called for empty input")
		return nil
	})
	if err != nil || stats.Reads != 0 {
		t.Errorf("empty stream: %+v %v", stats, err)
	}
}

func TestMapStreamMalformedMidStream(t *testing.T) {
	ix := mustBuild(t, testGenome(t, 1000), IndexConfig{})
	// Two good records, then a truncated one.
	in := "@r1\nACGT\n+\nIIII\n@r2\nGGTT\n+\nIIII\n@broken\nACG\n"
	emitted := 0
	_, err := mapStream(ix, strings.NewReader(in), 2, func(StreamResult) error {
		emitted++
		return nil
	})
	if err == nil {
		t.Fatal("malformed stream accepted")
	}
	if emitted != 2 {
		t.Errorf("emitted %d results before the error, want 2", emitted)
	}
}

// TestMapStreamQCTolerant runs the gated stream over a corpus with malformed
// records and low-quality tails: the emitted results must be exactly the
// offline-ingested survivors, in order, and the report must balance.
func TestMapStreamQCTolerant(t *testing.T) {
	ref := testGenome(t, 5000)
	sim, _ := readsim.Simulate(ref, readsim.ReadsConfig{Count: 40, Length: 40, MappingRatio: 1, Seed: 15})
	var dirty bytes.Buffer
	for i, r := range sim {
		switch {
		case i%7 == 3: // quality line shorter than the sequence
			fmt.Fprintf(&dirty, "@%s\n%s\n+\n%s\n", r.ID, r.Seq.String(), strings.Repeat("I", 10))
		case i%7 == 5: // collapsed 3' tail, trimmed below MinLen
			half := strings.Repeat("I", 20) + strings.Repeat("#", 20)
			fmt.Fprintf(&dirty, "@%s\n%s\n+\n%s\n", r.ID, r.Seq.String(), half)
		default:
			fmt.Fprintf(&dirty, "@%s\n%s\n+\n%s\n", r.ID, r.Seq.String(), strings.Repeat("I", 40))
		}
	}
	pol := qc.Policy{Tolerant: true, TrimQual: 10, MinLen: 30}
	want, err := qc.Ingest(bytes.NewReader(dirty.Bytes()), pol)
	if err != nil {
		t.Fatal(err)
	}
	if want.Report.Malformed == 0 || want.Report.RejectedTotal() == 0 {
		t.Fatalf("corpus too tame: %+v", want.Report)
	}
	ix := mustBuild(t, ref, IndexConfig{})
	var got []StreamResult
	stats, rep, err := ix.MapStreamQC(bytes.NewReader(dirty.Bytes()), pol, MapOptions{}, 8,
		func(r StreamResult) error {
			got = append(got, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want.Report) {
		t.Errorf("stream report %+v, want %+v", rep, want.Report)
	}
	if stats.Reads != want.Report.Passed || len(got) != len(want.Seqs) {
		t.Fatalf("stream mapped %d reads, want %d survivors", stats.Reads, want.Report.Passed)
	}
	for i := range got {
		if got[i].ID != want.IDs[i] || got[i].Read.String() != want.Seqs[i].String() {
			t.Fatalf("survivor %d is %s, want %s", i, got[i].ID, want.IDs[i])
		}
	}
}

func TestMapStreamEmitError(t *testing.T) {
	ref := testGenome(t, 2000)
	sim, _ := readsim.Simulate(ref, readsim.ReadsConfig{Count: 50, Length: 20, MappingRatio: 1, Seed: 14})
	ix := mustBuild(t, ref, IndexConfig{})
	boom := errors.New("boom")
	_, err := mapStream(ix, streamInput(t, sim, false), 10, func(StreamResult) error {
		return boom
	})
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("emit error not propagated: %v", err)
	}
}

// countingReader counts the bytes handed to its consumer.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestMapStreamStopsReadingOnError: when emit fails in the second of 200
// batches, MapStreamQC stops its parser instead of decoding the rest of the
// input before it returns.
func TestMapStreamStopsReadingOnError(t *testing.T) {
	ref := testGenome(t, 5000)
	const batch = 16
	sim, _ := readsim.Simulate(ref, readsim.ReadsConfig{Count: 200 * batch, Length: 100, MappingRatio: 1, Seed: 16})
	ix := mustBuild(t, ref, IndexConfig{})
	in := streamInput(t, sim, false)
	total := int64(in.Len())
	cr := &countingReader{r: in}
	boom := errors.New("boom")
	emitted := 0
	_, _, err := ix.MapStreamQC(cr, qc.Policy{}, MapOptions{}, batch, func(StreamResult) error {
		if emitted++; emitted > batch {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	// The parser is at most a batch ahead of the mapper; the decoder under it
	// reads 64 KiB at a time.
	if got := cr.n.Load(); got > 2<<16 || got >= total/4 {
		t.Errorf("read %d of %d input bytes before returning; the parser was not stopped", got, total)
	}
}
