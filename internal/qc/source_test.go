package qc

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/readsim"
)

// drainSource pulls every batch of src, checking the invariants every batch
// owes: IDs and Seqs in step, nothing after io.EOF but io.EOF.
func drainSource(t testing.TB, src *Source) (batches []Batch, err error) {
	t.Helper()
	for {
		b, err := src.Next()
		if err != nil {
			if len(b.IDs)+len(b.Seqs)+len(b.Rejects) != 0 {
				t.Fatalf("Next returned a batch beside the error %v", err)
			}
			if _, again := src.Next(); again != err {
				t.Fatalf("Next after %v returned %v", err, again)
			}
			if err == io.EOF {
				return batches, nil
			}
			return batches, err
		}
		if len(b.IDs) != len(b.Seqs) {
			t.Fatalf("batch holds %d ids for %d reads", len(b.IDs), len(b.Seqs))
		}
		if len(b.Seqs) == 0 && len(b.Rejects) == 0 {
			t.Fatal("Next returned an empty batch without io.EOF")
		}
		batches = append(batches, b)
	}
}

// flatten concatenates batches into the shape Ingest returns.
func flatten(batches []Batch) (ids []string, seqs []string, rejects []Reject) {
	for _, b := range batches {
		ids = append(ids, b.IDs...)
		for _, s := range b.Seqs {
			seqs = append(seqs, s.String())
		}
		rejects = append(rejects, b.Rejects...)
	}
	sort.SliceStable(rejects, func(i, k int) bool { return rejects[i].Index < rejects[k].Index })
	return ids, seqs, rejects
}

// checkBatchingTransparent is the property FuzzSourceBatches holds for any
// input: cutting the stream into batches changes nothing Ingest reports.
func checkBatchingTransparent(t testing.TB, data []byte, pol Policy, batchSize int) {
	t.Helper()
	want, wantErr := Ingest(bytes.NewReader(data), pol)
	src, err := NewSource(bytes.NewReader(data), pol, batchSize)
	if err != nil {
		if wantErr == nil {
			t.Fatalf("NewSource failed (%v) where Ingest did not", err)
		}
		return
	}
	defer src.Close()
	batches, err := drainSource(t, src)
	rep := src.Report()
	if rep.Attempted != rep.Passed+rep.Malformed+rep.RejectedTotal() {
		t.Fatalf("%+v batch=%d: report does not balance: %+v", pol, batchSize, rep)
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%+v batch=%d: batched error %v, one-shot error %v", pol, batchSize, err, wantErr)
	}
	if err != nil {
		return
	}
	for i, b := range batches {
		if pol.Active() && pol.Paired && len(b.Seqs)%2 != 0 {
			t.Fatalf("%+v batch=%d: batch %d of a paired policy holds %d reads", pol, batchSize, i, len(b.Seqs))
		}
	}
	ids, seqs, rejects := flatten(batches)
	wantIDs, wantSeqs, wantRejects := flatten([]Batch{{IDs: want.IDs, Seqs: want.Seqs, Rejects: want.Rejects}})
	if !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(seqs, wantSeqs) {
		t.Fatalf("%+v batch=%d: survivors differ from Ingest:\n got %v\nwant %v", pol, batchSize, ids, wantIDs)
	}
	if !reflect.DeepEqual(rejects, wantRejects) {
		t.Fatalf("%+v batch=%d: reject rows differ from Ingest:\n got %+v\nwant %+v", pol, batchSize, rejects, wantRejects)
	}
	if !reflect.DeepEqual(rep, want.Report) {
		t.Fatalf("%+v batch=%d: report %+v, Ingest's %+v", pol, batchSize, rep, want.Report)
	}
}

// fuzzPolicy unpacks policy bits. The offset is forced and the sort is off:
// both are scoped to a batch on purpose (see the tests below), everything
// else must not depend on where the batches fall.
func fuzzPolicy(bits uint8) Policy {
	p := Policy{PhredOffset: 33, Paired: bits&1 != 0, Tolerant: bits&2 != 0}
	if bits&4 != 0 {
		p.MinLen = 6
	}
	if bits&8 != 0 {
		p.MaxN = 1
	}
	if bits&16 != 0 {
		p.MaxEE = 0.5
	}
	if bits&32 != 0 {
		p.TrimQual = 10
	}
	if bits&64 != 0 {
		p.PhredOffset = 64
	}
	return p
}

// sourceSeeds are the corpus seeds of FuzzSourceBatches, also run as a plain
// test over every batch size.
func sourceSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	reads := make([]readsim.FastqRead, 40)
	for i := range reads {
		seq := make([]byte, 12+rng.Intn(20))
		for k := range seq {
			seq[k] = "ACGT"[rng.Intn(4)]
		}
		reads[i] = readsim.FastqRead{ID: fmt.Sprintf("r%d", i), Seq: seq}
	}
	var dirty bytes.Buffer
	if _, err := readsim.WriteDirtyFastq(&dirty, reads, readsim.DirtyConfig{
		MalformedFrac: 0.2, NFrac: 0.2, QualDrop: 0.3, Seed: 4,
	}); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(dirty.Bytes())
	zw.Close()
	return map[string][]byte{
		"dirty": dirty.Bytes(),
		"fasta": []byte(">a\nACGTACGTAC\n>b\nACNNT\n>c\nACGTACGTACGTAC\nGGTT\n"),
		"gzip":  gz.Bytes(),
		"odd-paired-tail": []byte(fq(
			rec("p1/1", "ACGTACGT", qual(8, 30)), rec("p1/2", "ACGTACGT", qual(8, 30)),
			rec("p2/1", "ACG", qual(3, 30)), rec("p2/2", "ACGTACGT", qual(8, 30)),
			rec("orphan/1", "ACGTACGT", qual(8, 30)))),
		"all-malformed": []byte("@a\nACGT\n+\nII\n@b\nACGT\nIIII\n@c\nAC\n+\nIIII\n"),
		"empty":         nil,
	}
}

func TestSourceBatchesMatchIngest(t *testing.T) {
	for name, data := range sourceSeeds(t) {
		t.Run(name, func(t *testing.T) {
			for bits := 0; bits < 128; bits++ {
				for _, batch := range []int{1, 2, 3, 7, 64} {
					checkBatchingTransparent(t, data, fuzzPolicy(uint8(bits)), batch)
				}
			}
		})
	}
}

func FuzzSourceBatches(f *testing.F) {
	for _, data := range sourceSeeds(f) {
		f.Add(data, uint8(2|4|32), uint8(3))
		f.Add(data, uint8(1|2|4), uint8(4))
		f.Add(data, uint8(0), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, bits, batch uint8) {
		checkBatchingTransparent(t, data, fuzzPolicy(bits), 1+int(batch%64))
	})
}

// The three behaviours that are scoped to a batch, by name.

func TestSourceSortsPerBatch(t *testing.T) {
	in := fq(
		rec("dirty1", "ACGTACGT", qual(8, 5)), rec("clean1", "ACGTACGT", qual(8, 38)),
		rec("dirty2", "ACGTACGT", qual(8, 5)), rec("clean2", "ACGTACGT", qual(8, 38)),
	)
	src, err := NewSource(strings.NewReader(in), Policy{QualitySort: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := drainSource(t, src)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, _ := flatten(batches)
	// Ingest, one batch, would put both clean reads first.
	if want := []string{"clean1", "dirty1", "clean2", "dirty2"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("order %v, want each batch of two sorted on its own: %v", ids, want)
	}
}

func TestSourceDetectsOffsetOnFirstBatchWithQualities(t *testing.T) {
	// The first batch's qualities sit in the 33/64 overlap and read as
	// phred+33; a phred+64-only byte in the second batch comes too late to
	// change the job's encoding, where one batch over the file sees it.
	in := fq(rec("a", "ACGTACGT", "IIIIIIII"), rec("b", "ACGTACGT", "hhhhhhhh"))
	whole, err := Ingest(strings.NewReader(in), Policy{MaxEE: 100})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(strings.NewReader(in), Policy{MaxEE: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainSource(t, src); err != nil {
		t.Fatal(err)
	}
	if got := src.Report().PhredOffset; got != 33 || whole.Report.PhredOffset != 64 {
		t.Fatalf("batched offset %d (want 33), one-shot offset %d (want 64)", got, whole.Report.PhredOffset)
	}
}

func TestSourceInactivePairedPolicyPassesOrphan(t *testing.T) {
	in := fq(rec("p/1", "ACGT", qual(4, 30)), rec("p/2", "ACGT", qual(4, 30)), rec("orphan", "ACGT", qual(4, 30)))
	for _, batch := range []int{0, 2} {
		src, err := NewSource(strings.NewReader(in), Policy{Paired: true}, batch)
		if err != nil {
			t.Fatal(err)
		}
		batches, err := drainSource(t, src)
		if err != nil {
			t.Fatal(err)
		}
		if ids, _, rejects := flatten(batches); len(ids) != 3 || len(rejects) != 0 {
			t.Fatalf("batch=%d: %v survived, %v rejected; an inactive policy gates nothing", batch, ids, rejects)
		}
		// Any gate at all makes pairing matter: the orphan has no mate.
		res, err := Ingest(strings.NewReader(in), Policy{Paired: true, MinLen: 1})
		if err != nil || len(res.IDs) != 2 || res.Report.Rejected[ReasonMateRejected] != 1 {
			t.Fatalf("active paired policy kept %v (%v)", res.IDs, err)
		}
	}
}

// Reject rows leave with the batch that found them: the source holds nothing
// per record between batches, which is what bounds a streamed run.
func TestSourceHoldsNoRejectsBetweenBatches(t *testing.T) {
	data := sourceSeeds(t)["dirty"]
	pol := Policy{Tolerant: true, TrimQual: 10, MinLen: 20, MaxN: 2}
	src, err := NewSource(bytes.NewReader(data), pol, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += len(b.Rejects)
		if len(src.rejects) != 0 || len(src.recs) > 1 || len(src.errs) > 1 {
			t.Fatalf("source still holds %d reject rows, %d records and %d errors after a batch", len(src.rejects), len(src.recs), len(src.errs))
		}
	}
	rep := src.Report()
	if rep.Malformed == 0 || rep.RejectedTotal() == 0 {
		t.Fatalf("corpus too tame: %+v", rep)
	}
	if rows != rep.Malformed+rep.RejectedTotal() {
		t.Fatalf("%d reject rows left through the batches, report counts %d", rows, rep.Malformed+rep.RejectedTotal())
	}
}

// A strict decode error ends the stream where it is reached; what was handed
// out before it stays accounted, what was in hand is dropped uncounted.
func TestSourceStrictErrorKeepsReportBalanced(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 10; i++ {
		in.WriteString(rec(fmt.Sprintf("r%d", i), "ACGTACGT", qual(8, 30)))
	}
	in.WriteString("@torn\nACGT\n@next\nACGT\n+\nIIII\n")
	src, err := NewSource(strings.NewReader(in.String()), Policy{MinLen: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := drainSource(t, src)
	if err == nil || !strings.Contains(err.Error(), "line 43") {
		t.Fatalf("error %v, want the decoder's line 43", err)
	}
	rep := src.Report()
	if len(batches) != 2 || rep.Attempted != 8 || rep.Passed != 8 {
		t.Fatalf("%d batches, report %+v; want the two whole batches before the error", len(batches), rep)
	}
}

// BenchmarkSource prices the gate against the loop it replaced: ReadAll plus
// one Sanitize per record, which is all the zero policy asks for.
func BenchmarkSource(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w := fastx.NewWriter(&buf, fastx.FASTQ, false)
	seq, q := make([]byte, 100), make([]byte, 100)
	for i := 0; i < 5000; i++ {
		for k := range seq {
			seq[k], q[k] = "ACGT"[rng.Intn(4)], byte(33+20+rng.Intn(20))
		}
		if err := w.Write(&fastx.Record{ID: fmt.Sprintf("read-%d", i), Seq: seq, Qual: q}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("reference-ReadAll+Sanitize", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			recs, err := fastx.ReadAll(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			seqs, ids := make([]dna.Seq, len(recs)), make([]string, len(recs))
			for k, r := range recs {
				seqs[k], _ = dna.Sanitize(r.Seq, dna.A)
				ids[k] = r.ID
			}
		}
	})
	for _, c := range []struct {
		name string
		pol  Policy
	}{
		{"zero-policy", Policy{}},
		{"MinLen+MaxN", Policy{MinLen: 50, MaxN: 5}},
		{"MaxEE+sort", Policy{MaxEE: 5, QualitySort: true}},
	} {
		for _, batch := range []int{0, 512} {
			b.Run(fmt.Sprintf("%s/batch=%d", c.name, batch), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					src, err := NewSource(bytes.NewReader(data), c.pol, batch)
					if err != nil {
						b.Fatal(err)
					}
					n := 0
					for {
						batch, err := src.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							b.Fatal(err)
						}
						n += len(batch.Seqs)
					}
					if n == 0 {
						b.Fatal("no reads survived")
					}
				}
			})
		}
	}
}
