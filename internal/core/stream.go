package core

import (
	"fmt"
	"io"
	"time"

	"bwaver/internal/dna"
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
// quality-control policy applies at ingest: a qc.Source decodes (tolerantly
// when the policy asks), trims, gates, and — with QualitySort — stably
// reorders each batch before it is mapped, so only surviving reads reach the
// mapping path. Order within a batch is the gate's post-sort order, identical
// on every backend. The returned report carries the per-reason reject
// accounting of the batches mapped; the zero policy gates nothing. A decode
// error ends the run at the batch it falls in, after the batches before it.
func (ix *Index) MapStreamQC(r io.Reader, pol qc.Policy, opts MapOptions, batchSize int, emit func(StreamResult) error) (MapStats, qc.Report, error) {
	if batchSize <= 0 {
		batchSize = DefaultStreamBatch
	}
	src, err := qc.NewSource(r, pol, batchSize)
	if err != nil {
		return MapStats{}, qc.Report{}, err
	}
	defer src.Close()

	type pulled struct {
		batch qc.Batch
		err   error
	}
	// The parser goroutine stays one batch ahead of the mapper, so decoding,
	// gating and the quality-sort overlap mapping. It owns the source until it
	// exits: on io.EOF or a decode error, which it hands over last, or when
	// the mapper gives up and closes stop.
	batches := make(chan pulled)
	stop := make(chan struct{})
	parserDone := make(chan struct{})
	go func() {
		defer close(parserDone)
		for {
			b, err := src.Next()
			select {
			case batches <- pulled{b, err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	var stats MapStats
	start := time.Now()
	err = func() error {
		for {
			p := <-batches
			if p.err == io.EOF {
				return nil
			}
			if p.err != nil {
				return p.err
			}
			if len(p.batch.Seqs) == 0 {
				continue // every record of this batch was rejected
			}
			results, batchStats, err := ix.MapReads(p.batch.Seqs, opts)
			if err != nil {
				return err
			}
			stats.Reads += batchStats.Reads
			stats.MappedReads += batchStats.MappedReads
			stats.Occurrences += batchStats.Occurrences
			stats.TotalSteps += batchStats.TotalSteps
			for i := range results {
				if err := emit(StreamResult{ID: p.batch.IDs[i], Read: p.batch.Seqs[i], Res: results[i]}); err != nil {
					return fmt.Errorf("core: emit: %w", err)
				}
			}
		}
	}()
	close(stop)
	<-parserDone
	if err != nil {
		return MapStats{}, src.Report(), err
	}
	stats.Elapsed = time.Since(start)
	return stats, src.Report(), nil
}
