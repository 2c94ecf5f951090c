package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
	"bwaver/internal/runner"
)

// The streaming path over an index: reads decoded and gated by a qc.Source,
// mapped batch by batch through internal/runner — the loop the server and the
// CLI both run — and rendered as exact TSV rows.

func streamIndex(t *testing.T, n int) (dna.Seq, *core.Index) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ref, ix
}

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

// mapStream maps every record of r in batches of batchSize (<= 0: one batch)
// and returns the emitted rows, one TSV line each, header dropped.
func mapStream(ix *core.Index, r io.Reader, pol qc.Policy, batchSize int, emit func(rows []string) error) (runner.Result, qc.Report, error) {
	src, err := qc.NewSource(r, pol, batchSize)
	if err != nil {
		return runner.Result{}, qc.Report{}, err
	}
	defer src.Close()
	rows := runner.NewRows(ix)
	res, err := runner.Run(context.Background(), runner.NewReads(src, nil), runner.Exact(ix, true), rows,
		runner.Options{Emit: func(_ qc.Batch, text, _ []byte) error {
			var lines []string
			for _, line := range strings.Split(string(text), "\n") {
				if line != "" && !strings.HasPrefix(line, "read\t") {
					lines = append(lines, line)
				}
			}
			return emit(lines)
		}})
	return res, src.Report(), err
}

// positionsCell is the TSV cell of one strand's positions: ascending and
// comma-joined, "-" for none.
func positionsCell(ps []int32) string {
	if len(ps) == 0 {
		return "-"
	}
	sorted := slices.Clone(ps)
	slices.Sort(sorted)
	cells := make([]string, len(sorted))
	for i, p := range sorted {
		cells[i] = fmt.Sprint(p)
	}
	return strings.Join(cells, ",")
}

// collect is an emit that keeps every row.
func collect(rows *[]string) func([]string) error {
	return func(batch []string) error {
		*rows = append(*rows, batch...)
		return nil
	}
}

func TestMapStreamMatchesBatch(t *testing.T) {
	ref, ix := streamIndex(t, 20000)
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 1000, Length: 40, MappingRatio: 0.6, RevCompFraction: 0.5, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ix.MapReads(readsim.Seqs(sim), core.MapOptions{Locate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, batchSize := range []int{0, 1, 7, 100, 5000} {
		var got []string
		res, _, err := mapStream(ix, streamInput(t, sim, false), qc.Policy{}, batchSize, collect(&got))
		if err != nil {
			t.Fatalf("batch=%d: %v", batchSize, err)
		}
		if res.Reads != len(sim) || len(got) != len(sim) {
			t.Fatalf("batch=%d: %d rows for %d reads", batchSize, len(got), len(sim))
		}
		for i, row := range got {
			f := strings.Split(row, "\t")
			if f[0] != sim[i].ID {
				t.Fatalf("batch=%d: row %d out of order: %s vs %s", batchSize, i, f[0], sim[i].ID)
			}
			w := want[i]
			if f[2] != fmt.Sprint(w.Forward.Count()) || f[3] != positionsCell(w.ForwardPositions) ||
				f[4] != fmt.Sprint(w.Reverse.Count()) || f[5] != positionsCell(w.ReversePositions) {
				t.Fatalf("batch=%d: row %d differs from batch mapping: %q", batchSize, i, row)
			}
		}
	}
}

func TestMapStreamGzip(t *testing.T) {
	ref, ix := streamIndex(t, 5000)
	sim, _ := readsim.Simulate(ref, readsim.ReadsConfig{Count: 100, Length: 30, MappingRatio: 1, Seed: 13})
	var got []string
	res, _, err := mapStream(ix, streamInput(t, sim, true), qc.Policy{}, 16, collect(&got))
	if err != nil || len(got) != 100 || res.Reads != 100 {
		t.Fatalf("gzip stream: %d rows, %+v, %v", len(got), res, err)
	}
	for _, row := range got {
		if !strings.Contains(row, "\ttrue\t") {
			t.Errorf("read did not map: %q", row)
		}
	}
}

func TestMapStreamEmptyInput(t *testing.T) {
	_, ix := streamIndex(t, 1000)
	res, _, err := mapStream(ix, strings.NewReader(""), qc.Policy{}, 10, func([]string) error {
		t.Error("emit called for empty input")
		return nil
	})
	if err != nil || res.Reads != 0 {
		t.Errorf("empty stream: %+v %v", res, err)
	}
}

// A decode error ends the run at the batch it falls in, after the batches
// before it.
func TestMapStreamMalformedMidStream(t *testing.T) {
	_, ix := streamIndex(t, 1000)
	// Two good records, then a truncated one.
	in := "@r1\nACGT\n+\nIIII\n@r2\nGGTT\n+\nIIII\n@broken\nACG\n"
	var got []string
	if _, _, err := mapStream(ix, strings.NewReader(in), qc.Policy{}, 2, collect(&got)); err == nil {
		t.Fatal("malformed stream accepted")
	}
	if len(got) != 2 {
		t.Errorf("emitted %d rows before the error, want 2", len(got))
	}
}

// TestMapStreamQCTolerant runs the gated stream over a corpus with malformed
// records and low-quality tails: the emitted rows must be exactly the
// offline-ingested survivors, in order, and the report must balance.
func TestMapStreamQCTolerant(t *testing.T) {
	ref, ix := streamIndex(t, 5000)
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
	var got []string
	res, rep, err := mapStream(ix, bytes.NewReader(dirty.Bytes()), pol, 8, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want.Report) {
		t.Errorf("stream report %+v, want %+v", rep, want.Report)
	}
	if res.Reads != want.Report.Passed || len(got) != len(want.Seqs) {
		t.Fatalf("stream mapped %d reads, want %d survivors", res.Reads, want.Report.Passed)
	}
	for i, row := range got {
		if id := strings.Split(row, "\t")[0]; id != want.IDs[i] {
			t.Fatalf("survivor %d is %s, want %s", i, id, want.IDs[i])
		}
	}
}

func TestMapStreamEmitError(t *testing.T) {
	ref, ix := streamIndex(t, 2000)
	sim, _ := readsim.Simulate(ref, readsim.ReadsConfig{Count: 50, Length: 20, MappingRatio: 1, Seed: 14})
	boom := errors.New("boom")
	_, _, err := mapStream(ix, streamInput(t, sim, false), qc.Policy{}, 10, func([]string) error { return boom })
	if !errors.Is(err, boom) {
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
// batches, the run stops pulling instead of decoding the rest of the input.
func TestMapStreamStopsReadingOnError(t *testing.T) {
	ref, ix := streamIndex(t, 5000)
	const batch = 16
	sim, _ := readsim.Simulate(ref, readsim.ReadsConfig{Count: 200 * batch, Length: 100, MappingRatio: 1, Seed: 16})
	in := streamInput(t, sim, false)
	total := int64(in.Len())
	cr := &countingReader{r: in}
	boom := errors.New("boom")
	batches := 0
	_, _, err := mapStream(ix, cr, qc.Policy{}, batch, func([]string) error {
		if batches++; batches > 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	// The run pulls one batch at a time; the decoder under it reads 64 KiB at
	// a time.
	if got := cr.n.Load(); got > 2<<16 || got >= total/4 {
		t.Errorf("read %d of %d input bytes before returning; the run kept pulling", got, total)
	}
}
