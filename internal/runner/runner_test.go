package runner

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fpga"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
)

// batches hands out fixed batches, then err (io.EOF when nil), counting the
// pulls.
type batches struct {
	list  []qc.Batch
	err   error
	pulls int
}

func (b *batches) Next() (qc.Batch, error) {
	b.pulls++
	if len(b.list) == 0 {
		if b.err != nil {
			return qc.Batch{}, b.err
		}
		return qc.Batch{}, io.EOF
	}
	next := b.list[0]
	b.list = b.list[1:]
	return next, nil
}

// fixture returns an index and n simulated reads in batches of size.
func fixture(t *testing.T, n, size int) (*core.Index, []qc.Batch) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 4000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{Count: n, Length: 30, MappingRatio: 0.8, RevCompFraction: 0.5, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	var list []qc.Batch
	for lo := 0; lo < n; lo += size {
		var b qc.Batch
		for _, r := range sim[lo:min(lo+size, n)] {
			b.IDs = append(b.IDs, r.ID)
			b.Seqs = append(b.Seqs, r.Seq)
		}
		list = append(list, b)
	}
	return ix, list
}

// runExact maps src's batches exactly and returns the emitted text.
func runExact(ix *core.Index, src Source, opts Options) (string, Result, error) {
	var out bytes.Buffer
	opts.Emit = func(_ qc.Batch, text, _ []byte) error {
		out.Write(text)
		return nil
	}
	res, err := Run(context.Background(), NewReads(src, nil), Exact(ix, true), NewRows(ix), opts)
	return out.String(), res, err
}

// Emit runs before the next pull, so a failing emit stops the run with no
// further batch read.
func TestRunStopsPullingWhenEmitFails(t *testing.T) {
	ix, list := fixture(t, 40, 4)
	src := &batches{list: list}
	boom := errors.New("boom")
	emits := 0
	_, err := Run(context.Background(), NewReads(src, nil), Exact(ix, true), NewRows(ix), Options{
		Emit: func(qc.Batch, []byte, []byte) error {
			if emits++; emits == 2 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) || src.pulls != 2 {
		t.Fatalf("err %v after %d pulls, want the emit error after 2", err, src.pulls)
	}
}

// A decode error ends the run at the batch it falls in: the batches before it
// are emitted and counted, and the error is the source's.
func TestRunEndsAtDecodeError(t *testing.T) {
	ix, list := fixture(t, 12, 4)
	bad := errors.New("truncated record")
	out, res, err := runExact(ix, &batches{list: list, err: bad}, Options{})
	if !errors.Is(err, bad) || res.Reads != 12 {
		t.Fatalf("err %v with %d reads, want the decode error after 12", err, res.Reads)
	}
	if rows := strings.Count(out, "\n"); rows != 13 {
		t.Errorf("%d lines emitted before the error, want a header and 12 rows", rows)
	}
}

// Reject rows reach Emit with their batch even when nothing in it survived.
func TestRunEmitsRejectOnlyBatches(t *testing.T) {
	ix, list := fixture(t, 4, 4)
	src := &batches{list: []qc.Batch{{Rejects: []qc.Reject{{ID: "short"}}}, list[0]}}
	var rejects, reads int
	_, err := Run(context.Background(), NewReads(src, nil), Exact(ix, true), NewRows(ix), Options{
		Emit: func(b qc.Batch, _, _ []byte) error {
			rejects += len(b.Rejects)
			reads += len(b.Seqs)
			return nil
		},
	})
	if err != nil || rejects != 1 || reads != 4 {
		t.Fatalf("emitted %d rejects and %d reads (%v), want 1 and 4", rejects, reads, err)
	}
}

// A farm that fails maps nothing without a fallback; with one, the run
// finishes on the CPU and writes what a CPU run writes.
func TestRunFallsBackToCPU(t *testing.T) {
	ix, list := fixture(t, 20, 8)
	want, _, err := runExact(ix, &batches{list: list}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := fpga.NewDevice(fpga.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fpga.ParseFaultPlan("seed=1,persistent=0:kernel")
	if err != nil {
		t.Fatal(err)
	}
	dev.EnableFaults(plan, 0)
	farm, err := fpga.NewFarm([]*fpga.Device{dev}, ix)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runExact(ix, &batches{list: list}, Options{Farm: farm}); err == nil {
		t.Fatal("a dead farm mapped without a fallback")
	}
	var causes []error
	got, res, err := runExact(ix, &batches{list: list}, Options{Farm: farm, Fallback: func(err error) bool {
		causes = append(causes, err)
		return true
	}})
	if err != nil || got != want || res.Reads != 20 {
		t.Fatalf("fallback run: %d reads, %v, output equal to the CPU run's: %t", res.Reads, err, got == want)
	}
	if len(causes) != 1 {
		t.Errorf("fallback asked %d times, want once: the rest of the run stays on the CPU", len(causes))
	}
}

// Exact positions render ascending whatever order the index reports them in,
// and the caller's slice keeps its order.
func TestPositionsCellAscending(t *testing.T) {
	r := &Rows{}
	ps := []int32{40, 7, 19}
	got := string(r.appendPositions(nil, ps, 5))
	if got != "7,19,40" {
		t.Errorf("positions cell %q, want 7,19,40", got)
	}
	if ps[0] != 40 {
		t.Error("appendPositions sorted the caller's slice in place")
	}
	if got := string(r.appendPositions(nil, nil, 5)); got != "-" {
		t.Errorf("empty positions cell %q, want -", got)
	}
}

// PairAligned keeps whole input as one batch and rounds odd sizes up.
func TestPairAligned(t *testing.T) {
	for in, want := range map[int]int{0: 0, 1: 2, 7: 8, 8: 8} {
		if got := PairAligned(in); got != want {
			t.Errorf("PairAligned(%d) = %d, want %d", in, got, want)
		}
	}
}

// mateBatches splits reads named m0, m1, ... into batches of size.
func mateBatches(n, size int) *batches {
	src := &batches{}
	for lo := 0; lo < n; lo += size {
		var b qc.Batch
		for i := lo; i < min(lo+size, n); i++ {
			b.IDs = append(b.IDs, "m"+strconv.Itoa(i))
			b.Seqs = append(b.Seqs, dna.MustParseSeq("ACGT"))
		}
		src.list = append(src.list, b)
	}
	return src
}

// Mates interleaves equal batches, a pair under its first mate's ID, and
// fails when one mate file ends before the other, wherever it ends.
func TestMatesKeepMatesInStep(t *testing.T) {
	m := NewMates(mateBatches(5, 2), mateBatches(5, 2))
	var ids []string
	for {
		b, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Seqs) != len(b.IDs) || len(b.Seqs)%2 != 0 {
			t.Fatalf("batch of %d reads and %d IDs", len(b.Seqs), len(b.IDs))
		}
		ids = append(ids, b.IDs...)
	}
	if got := strings.Join(ids, ","); got != "m0,m0,m1,m1,m2,m2,m3,m3,m4,m4" {
		t.Errorf("interleaved IDs %s", got)
	}
	for _, c := range []struct {
		name   string
		r1, r2 int
		want   string
	}{
		{"mate 2 ends mid-batch", 6, 5, "mate 2 ends after 5 reads"},
		{"mate 2 ends at a batch boundary", 6, 4, "mate 2 ends after 4 reads"},
		{"mate 2 goes on", 4, 6, "mate 1 ends after 4 reads"},
	} {
		m := NewMates(mateBatches(c.r1, 2), mateBatches(c.r2, 2))
		var err error
		for err == nil {
			_, err = m.Next()
		}
		if err == io.EOF || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want a mismatch naming %q", c.name, err, c.want)
		}
	}
	bad := errors.New("truncated record")
	if _, err := NewMates(mateBatches(2, 2), &batches{err: bad}).Next(); !errors.Is(err, bad) {
		t.Errorf("a mate's decode error came back as %v", err)
	}
}
