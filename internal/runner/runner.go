// Package runner is the one batch loop both front ends map through. A served
// job and a `bwaver map`/`bwaver mem` run alike pull reads from a qc.Source a
// batch at a time, map each batch with one workload value on the CPU or on
// the FPGA model, render its rows with the one encoder of their format
// (rows.go) and hand them to the front end's emit — the paper's host that
// "iteratively fetches query sequences from the host's memory ... until there
// is no more data to map". Memory follows the batch size, not the input.
//
// What differs between the front ends comes in as values (Options): the farm,
// the fallback policy, progress and parse-time reporting, the CPU worker
// count, and where the rows go.
package runner

import (
	"context"
	"fmt"
	"io"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fpga"
	"bwaver/internal/qc"
)

// DefaultStreamBatch is how many reads a run maps per batch unless its front
// end asks for another size.
const DefaultStreamBatch = 8192

// PairAligned rounds a batch size up to even, the batch size of interleaved
// mate pairs: a pair split across two batches would lose its rescue and
// proper-pair context. A size <= 0 (the whole input as one batch) stays so.
func PairAligned(batch int) int { return batch + batch&1 }

// Source is where a run's reads come from: a *qc.Source over the input, or a
// test's batches.
type Source interface {
	Next() (qc.Batch, error)
}

// Mates is the source of two-file pairs: each pull takes one batch from each
// mate's source and interleaves them R1, R2, R1, R2, ... Both sources must
// run the zero policy, under which every batch but the last is full, so
// batches of one size keep the mates in step; batches of two sizes, or one
// file ending before the other, are a mate-count mismatch and an error.
type Mates struct {
	r1, r2 Source
	pairs  int
	b      qc.Batch
}

// NewMates pairs the reads of r1 with those of r2.
func NewMates(r1, r2 Source) *Mates { return &Mates{r1: r1, r2: r2} }

// Next returns the next batch of pairs, a pair's ID being its first mate's.
// The batch is valid until the next call.
func (m *Mates) Next() (qc.Batch, error) {
	b1, err := m.r1.Next()
	if err != nil && err != io.EOF {
		return qc.Batch{}, err
	}
	b2, err2 := m.r2.Next()
	if err2 != nil && err2 != io.EOF {
		return qc.Batch{}, err2
	}
	if n1, n2 := len(b1.Seqs), len(b2.Seqs); n1 != n2 {
		short, long := 1, 2
		if n2 < n1 {
			short, long = 2, 1
		}
		return qc.Batch{}, fmt.Errorf("mate-count mismatch: mate %d ends after %d reads, mate %d goes on",
			short, m.pairs+min(n1, n2), long)
	}
	if err != nil {
		return qc.Batch{}, io.EOF
	}
	m.pairs += len(b1.Seqs)
	m.b.IDs, m.b.Seqs = m.b.IDs[:0], m.b.Seqs[:0]
	for i := range b1.Seqs {
		m.b.IDs = append(m.b.IDs, b1.IDs[i], b1.IDs[i])
		m.b.Seqs = append(m.b.Seqs, b1.Seqs[i], b2.Seqs[i])
	}
	return m.b, nil
}

// Reads is a run's input: its source, every pull of which is timed and
// reported.
type Reads struct {
	src    Source
	pulled func(total int, wait time.Duration)
	held   *qc.Batch
	total  int
	// wait is the time spent pulling so far; a run leaves it out of its CPU
	// mapping time.
	wait time.Duration
}

// NewReads wraps src. pulled, when non-nil, is told after every pull how many
// reads have been pulled in all and how long this pull took.
func NewReads(src Source, pulled func(total int, wait time.Duration)) *Reads {
	return &Reads{src: src, pulled: pulled}
}

// First pulls the first batch ahead of the run and holds it for Run: a served
// job does, so that an upload with no read, or one that does not decode,
// fails before any index is built. It returns io.EOF for an empty source.
func (r *Reads) First() error {
	b, err := r.pull()
	if err == nil {
		r.held = &b
	}
	return err
}

func (r *Reads) next() (qc.Batch, error) {
	if b := r.held; b != nil {
		r.held = nil
		return *b, nil
	}
	return r.pull()
}

func (r *Reads) pull() (qc.Batch, error) {
	start := time.Now()
	b, err := r.src.Next()
	wait := time.Since(start)
	r.wait += wait
	r.total += len(b.Seqs)
	if r.pulled != nil {
		r.pulled(r.total, wait)
	}
	return b, err
}

// Work is one workload as the runner sees it: how a batch maps on the CPU,
// the same workload as the FPGA model runs it, and how the results render as
// rows. A Work value may hold a run's state (the mem schedule), so it serves
// one run.
type Work[R any] struct {
	// cpu maps batch into dst, the run's one result buffer.
	cpu    func(dst []R, batch []dna.Seq, run core.MapOptions) error
	device fpga.Workload[R]
	// finish, when non-nil, is told of every batch the device mapped.
	finish func(run *fpga.Run[R])
	encode func(rows *Rows, off int, ids []string, reads []dna.Seq, results []R) error
}

// Exact is exact matching, rendered as the exact TSV; locate resolves the
// occurrence positions, on the FPGA model on the host from the search the
// device's ranges came from, the paper's final host-side step.
func Exact(ix *core.Index, locate bool) Work[core.MapResult] {
	return Work[core.MapResult]{
		cpu: func(dst []core.MapResult, batch []dna.Seq, run core.MapOptions) error {
			run.Locate = locate
			_, err := ix.MapReadsInto(dst, batch, run)
			return err
		},
		device: fpga.Exact(locate),
		encode: (*Rows).exact,
	}
}

// ExactSAM is exact matching rendered as SAM, every located hit one record.
func ExactSAM(ix *core.Index) Work[core.MapResult] {
	w := Exact(ix, true)
	w.encode = (*Rows).exactSAM
	return w
}

// ExactPairs is exact matching of interleaved mate pairs (R1, R2, ...: a
// Mates source), one pair to a row: the pair TSV, or with asSAM the pair's
// best placement as two SAM records. Pairing needs positions, so it always
// locates.
func ExactPairs(ix *core.Index, opts core.PairOptions, asSAM bool) Work[core.MapResult] {
	w := Exact(ix, true)
	w.encode = func(rows *Rows, off int, ids []string, reads []dna.Seq, results []core.MapResult) error {
		if asSAM {
			return rows.pairSAM(off, ids, reads, results, opts)
		}
		return rows.pairTSV(off, ids, reads, results, opts)
	}
	return w
}

// Approx is a mismatch budget: core's exact-then-rescue workload on the CPU,
// the same workload priced as the two-pass reconfigurable flow on the FPGA
// model. A row reports a read's exact hits or, when it has none, every
// in-budget stratum; locate resolves where the best stratum occurs.
func Approx(ix *core.Index, mismatches int, locate bool) Work[core.ApproxResult] {
	return Work[core.ApproxResult]{
		cpu: func(dst []core.ApproxResult, batch []dna.Seq, run core.MapOptions) error {
			run.Locate = locate
			return ix.MapReadsApproxFtab(dst, batch, mismatches, run, true)
		},
		device: fpga.TwoPass(mismatches, locate),
		encode: func(rows *Rows, off int, ids []string, reads []dna.Seq, results []core.ApproxResult) error {
			return rows.approx(off, ids, reads, results, locate)
		},
	}
}

// Mem is the seed-and-extend pipeline (SMEM seeding, collinear chaining,
// banded extension, MAPQ), rendered as SAM; count receives every batch's
// pipeline counters and whether it charged a fabric reconfiguration. On the
// FPGA the first batch pays the run's single reconfiguration, and later
// batches keep the alignment array programmed and overlap host seeding with
// modeled device extension.
func Mem(ix *core.Index, opts core.MemOptions, count func(stats core.MemStats, reconfigured bool)) Work[core.MemResult] {
	return Work[core.MemResult]{
		cpu: func(dst []core.MemResult, batch []dna.Seq, run core.MapOptions) error {
			stats, err := ix.MapReadsMemInto(dst, batch, opts, run)
			count(stats, false)
			return err
		},
		device: fpga.Mem(opts),
		finish: func(run *fpga.Run[core.MemResult]) {
			var stats core.MemStats
			for _, r := range run.Results {
				stats.Add(r)
			}
			count(stats, run.Profile.Reconfig > 0)
		},
		encode: func(rows *Rows, off int, ids []string, reads []dna.Seq, results []core.MemResult) error {
			return rows.mem(off, ids, reads, results, opts)
		},
	}
}

// Options are what a front end decides about a run.
type Options struct {
	// Workers is the CPU's mapping goroutines, as core.MapOptions takes it.
	Workers int
	// Farm maps the batches on the FPGA model; nil maps them on the CPU.
	Farm *fpga.Farm
	// Resident says an earlier run left the index in the farm's BRAM.
	Resident bool
	// Fallback, given a farm error, says whether that batch and the rest of
	// the run map on the CPU instead; nil never falls back.
	Fallback func(err error) bool
	// Progress, when non-nil, is told how many reads of the run have mapped.
	Progress func(done int)
	// Emit writes out one batch: text holds the rows rendered from its
	// survivors (empty when none survived), lines its NDJSON stream lines,
	// reject lines first, when the rows stream (empty when they do not). Both
	// are valid until Emit returns.
	Emit func(b qc.Batch, text, lines []byte) error
}

// Result is what a run did.
type Result struct {
	// Reads is how many reads the run mapped.
	Reads int
	// Device sums the modeled profiles of the batches the farm mapped.
	Device fpga.Profile
	// CPU is the wall-clock time of the CPU's share of the run, pulls left
	// out.
	CPU time.Duration
}

// MapTime is a run's mapping time: modeled device time plus CPU wall-clock.
func (r Result) MapTime() time.Duration { return r.Device.Total() + r.CPU }

// Run maps every batch of in with w, rendering rows into rows and emitting
// each batch before it pulls the next, so a run holds one batch of reads and
// of results however long its input is. When the farm fails and Fallback
// allows it, that batch and the remaining reads map on the CPU — same results
// (the backends are bit-identical by construction, for every workload),
// honest CPU timing; batches already emitted by the farm stand. On an error
// the result covers the batches emitted before it.
func Run[R any](ctx context.Context, in *Reads, w Work[R], rows *Rows, opts Options) (Result, error) {
	var res Result
	cpuStart, waitAt := time.Now(), in.wait
	var buf []R
	// One progress callback serves the whole run, so it reads the offset of
	// the batch in hand.
	off := 0
	var progress func(done, total int)
	if opts.Progress != nil {
		progress = func(done, _ int) { opts.Progress(off + done) }
	}
	cpu := core.MapOptions{Context: ctx, Workers: opts.Workers, Progress: progress}
	var session *fpga.Session[R]
	if opts.Farm != nil {
		session = fpga.NewSession(opts.Farm, w.device, fpga.MapRunOptions{Context: ctx, Progress: progress, IndexResident: opts.Resident})
	}
	for {
		b, err := in.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, fmt.Errorf("reads: %w", err)
		}
		// A batch with nothing to map never reaches an engine that polls the
		// context, so the loop does.
		if err := ctx.Err(); err != nil {
			return res, err
		}
		rows.rejected(b.Rejects)
		if len(b.Seqs) > 0 {
			var results []R
			if session != nil {
				run, err := session.Map(b.Seqs)
				switch {
				case err == nil:
					res.Device.Merge(run.Profile)
					results = run.Results
					if w.finish != nil {
						w.finish(run)
					}
				case opts.Fallback != nil && opts.Fallback(err):
					session = nil
					cpuStart, waitAt = time.Now(), in.wait
				default:
					return res, err
				}
			}
			if session == nil {
				if cap(buf) < len(b.Seqs) {
					buf = make([]R, len(b.Seqs))
				}
				results = buf[:len(b.Seqs)]
				if err := w.cpu(results, b.Seqs, cpu); err != nil {
					return res, err
				}
			}
			if err := w.encode(rows, off, b.IDs, b.Seqs, results); err != nil {
				return res, err
			}
		}
		err = opts.Emit(b, rows.text.Bytes(), rows.lines.Bytes())
		rows.text.Reset()
		rows.lines.Reset()
		if err != nil {
			return res, err
		}
		off += len(b.Seqs)
		res.Reads = off
	}
	if session == nil {
		res.CPU = time.Since(cpuStart) - (in.wait - waitAt)
	}
	return res, nil
}
