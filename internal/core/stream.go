package core

import (
	"fmt"
	"io"
	"time"

	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/qc"
)

// Streaming batch mapping. The paper's kernel "iteratively fetches query
// sequences from the host's memory ... until there is no more data to map";
// MapStreamQC is the host-side equivalent for arbitrarily large FASTQ inputs:
// records are parsed in fixed-size batches and mapped while the next batch
// is being parsed, so memory stays bounded by the batch size regardless of
// input size.

// StreamResult couples one record's identity with its mapping outcome.
type StreamResult struct {
	ID   string
	Read dna.Seq
	Res  MapResult
}

// DefaultStreamBatch is the default batch size for MapStreamQC.
const DefaultStreamBatch = 8192

// MapStreamQC maps every record of a FASTA/FASTQ stream (plain or gzipped),
// delivering results to emit in input order; batchSize <= 0 selects
// DefaultStreamBatch, and emit returning an error aborts the run. A
// quality-control policy applies at ingest: the parser goroutine decodes
// (tolerantly when the policy asks), trims, gates, and — with QualitySort —
// stably reorders each batch before it is mapped, so only surviving reads
// reach the mapping path. Order within a batch is the gate's post-sort
// order, identical on every backend. The returned report carries the
// per-reason reject accounting; the zero policy gates nothing.
func (ix *Index) MapStreamQC(r io.Reader, pol qc.Policy, opts MapOptions, batchSize int, emit func(StreamResult) error) (MapStats, qc.Report, error) {
	if batchSize <= 0 {
		batchSize = DefaultStreamBatch
	}
	gate, err := qc.NewGate(pol)
	if err != nil {
		return MapStats{}, qc.Report{}, err
	}
	reader, err := fastx.NewReader(r)
	if err != nil {
		return MapStats{}, qc.Report{}, err
	}
	defer reader.Close()
	reader.SetTolerant(pol.Tolerant)

	type batch struct {
		ids   []string
		reads []dna.Seq
		err   error
	}
	// The parser goroutine stays one batch ahead of the mapper. It owns the
	// gate, so trimming, gating, and the stable quality-sort overlap mapping;
	// the final report is handed over once the stream is fully decoded.
	batches := make(chan batch, 1)
	reportCh := make(chan qc.Report, 1)
	go func() {
		defer close(batches)
		defer func() { reportCh <- gate.Report() }()
		eof := false
		for !eof {
			b := batch{}
			// Feed one batch of decoder events; the gate may hold back a
			// trailing odd mate for the next drain.
			for fed := 0; fed < batchSize; fed++ {
				rec, err := reader.Read()
				if err == io.EOF {
					eof = true
					break
				}
				if err != nil {
					if re, ok := err.(*fastx.RecordError); ok && pol.Tolerant {
						gate.Malformed(re)
						continue
					}
					b.err = err
					break
				}
				gate.Record(rec)
			}
			for _, rd := range gate.Drain(eof && b.err == nil) {
				b.ids = append(b.ids, rd.ID)
				b.reads = append(b.reads, rd.Seq)
			}
			if len(b.reads) == 0 && b.err == nil {
				if eof {
					return
				}
				continue // every record in this batch was rejected; keep going
			}
			batches <- b
			if b.err != nil {
				return
			}
		}
	}()

	// fail drains the parser goroutine before returning, so its gate report
	// is complete and the goroutine never blocks on an abandoned channel.
	fail := func(err error) (MapStats, qc.Report, error) {
		for range batches {
		}
		return MapStats{}, <-reportCh, err
	}
	var stats MapStats
	start := time.Now()
	for b := range batches {
		if len(b.reads) > 0 {
			results, batchStats, err := ix.MapReads(b.reads, opts)
			if err != nil {
				return fail(err)
			}
			stats.Reads += batchStats.Reads
			stats.MappedReads += batchStats.MappedReads
			stats.Occurrences += batchStats.Occurrences
			stats.TotalSteps += batchStats.TotalSteps
			for i := range results {
				if err := emit(StreamResult{ID: b.ids[i], Read: b.reads[i], Res: results[i]}); err != nil {
					return fail(fmt.Errorf("core: emit: %w", err))
				}
			}
		}
		if b.err != nil {
			return fail(b.err)
		}
	}
	stats.Elapsed = time.Since(start)
	return stats, <-reportCh, nil
}
