package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/fpga"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
)

// QC ingest benchmark: a dirty interleaved corpus (malformed records, N runs,
// collapsed 3' quality tails) pushed through the tolerant decoder and the QC
// gate, once in stream order and once quality-sorted. The corpus and the
// survivors are identical between the two arms — only the batch order
// differs — so the WaveCycles delta isolates what batch homogeneity is worth
// on the lockstep device: trimming splits the survivors into length classes,
// and the sort groups each class into its own waves.

// qcReadLen is the pre-trim read length. Long enough that losing the
// collapsed 3' third (see qcQualDrop) produces two well-separated length
// classes.
const qcReadLen = 120

// Corruption rates of the benchmark corpus.
const (
	qcMalformedFrac = 0.10
	qcNFrac         = 0.08
	qcQualDrop      = 0.50
)

// qcPEs is the lane width of the modeled device. Wave divergence only exists
// across lanes, so the qc arm runs a multi-PE card (the default elsewhere in
// the sweep is a single PE, where every wave is trivially homogeneous).
const qcPEs = 16

// QCRow is one arm: the same corpus with quality-sort off or on.
type QCRow struct {
	QualitySort bool `json:"quality_sort"`
	// IngestReadsPerSec is the decode+trim+gate(+sort) rate over attempted
	// records.
	IngestReadsPerSec float64 `json:"ingest_reads_per_sec"`
	// MapReadsPerSec is the host mapping rate over the surviving reads.
	MapReadsPerSec float64 `json:"map_reads_per_sec"`
	// KernelCycles is the throughput-ideal device charge; WaveCycles is the
	// lockstep wave model, where every lane in a wave waits for the slowest.
	KernelCycles uint64 `json:"kernel_cycles"`
	WaveCycles   uint64 `json:"wave_cycles"`
	// WaveOverheadPct is 100*(WaveCycles-KernelCycles)/KernelCycles — the
	// divergence penalty batch ordering can recover.
	WaveOverheadPct float64 `json:"wave_overhead_pct"`
}

// QCBenchResult bundles the two arms with the corpus accounting they share.
type QCBenchResult struct {
	Reference string  `json:"reference"`
	RefBases  int     `json:"ref_bases"`
	Records   int     `json:"records"`
	ReadLen   int     `json:"read_length"`
	Malformed int     `json:"malformed"`
	Survivors int     `json:"survivors"`
	Rejected  int     `json:"rejected"`
	Trimmed   int     `json:"trimmed_bases"`
	SortGain  float64 `json:"wave_cycle_gain_pct"`
	Rows      []QCRow `json:"rows"`
}

// qcPolicy is the gate both arms run: tolerant decode, 3' trimming at the
// corpus's collapsed-tail boundary, and gates loose enough that rejects come
// from the injected damage rather than clean-read noise.
func qcPolicy(sorted bool) qc.Policy {
	return qc.Policy{
		Tolerant:    true,
		TrimQual:    10,
		MinLen:      qcReadLen / 2,
		MaxN:        4,
		QualitySort: sorted,
	}
}

// QCBench generates the dirty corpus once, then runs both arms over the same
// bytes.
func QCBench(s Scale, progress io.Writer) (*QCBenchResult, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	genome, err := EColi.generate(s)
	if err != nil {
		return nil, err
	}
	ix, err := core.BuildIndex(genome, core.IndexConfig{})
	if err != nil {
		return nil, err
	}
	sim, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: s.SampleReads, Length: qcReadLen, MappingRatio: 0.9,
		RevCompFraction: 0.5, Seed: s.Seed + 83,
	})
	if err != nil {
		return nil, err
	}
	reads := make([]readsim.FastqRead, len(sim))
	for i, rd := range sim {
		reads[i] = readsim.FastqRead{ID: rd.ID, Seq: []byte(rd.Seq.String())}
	}
	var corpus bytes.Buffer
	dirty, err := readsim.WriteDirtyFastq(&corpus, reads, readsim.DirtyConfig{
		MalformedFrac: qcMalformedFrac, NFrac: qcNFrac, QualDrop: qcQualDrop,
		Seed: s.Seed + 83,
	})
	if err != nil {
		return nil, err
	}

	res := &QCBenchResult{
		Reference: EColi.String(),
		RefBases:  len(genome),
		Records:   dirty.Records,
		ReadLen:   qcReadLen,
	}
	for _, sorted := range []bool{false, true} {
		pol := qcPolicy(sorted)

		// Ingest rate: repeat full passes over the corpus bytes until the
		// measurement is long enough to trust.
		ing, err := qc.Ingest(bytes.NewReader(corpus.Bytes()), pol)
		if err != nil {
			return nil, err
		}
		var elapsed time.Duration
		attempted := 0
		for pass := 0; pass < 50 && elapsed < 200*time.Millisecond; pass++ {
			start := time.Now()
			if _, err := qc.Ingest(bytes.NewReader(corpus.Bytes()), pol); err != nil {
				return nil, err
			}
			elapsed += time.Since(start)
			attempted += ing.Report.Attempted
		}

		// Host mapping rate over the survivors, in the arm's batch order.
		var mapElapsed time.Duration
		mapped := 0
		for pass := 0; pass < 50 && mapElapsed < 200*time.Millisecond; pass++ {
			start := time.Now()
			for _, seq := range ing.Seqs {
				ix.MapRead(seq)
			}
			mapElapsed += time.Since(start)
			mapped += len(ing.Seqs)
		}

		// Modeled device run: same survivors, same order, exact-match kernel.
		devCfg := s.deviceConfig()
		devCfg.PEs = qcPEs
		dev, err := fpga.NewDevice(devCfg)
		if err != nil {
			return nil, err
		}
		kernel, err := dev.Program(ix)
		if err != nil {
			return nil, err
		}
		run, err := kernel.MapReadsOpts(ing.Seqs, fpga.MapRunOptions{})
		if err != nil {
			return nil, err
		}

		row := QCRow{
			QualitySort:       sorted,
			IngestReadsPerSec: float64(attempted) / elapsed.Seconds(),
			MapReadsPerSec:    float64(mapped) / mapElapsed.Seconds(),
			KernelCycles:      run.Profile.KernelCycles,
			WaveCycles:        run.Profile.WaveCycles,
		}
		if row.KernelCycles > 0 {
			row.WaveOverheadPct = 100 * float64(row.WaveCycles-row.KernelCycles) / float64(row.KernelCycles)
		}
		res.Rows = append(res.Rows, row)
		if res.Survivors == 0 {
			res.Survivors = ing.Report.Passed
			res.Malformed = ing.Report.Malformed
			res.Rejected = ing.Report.RejectedTotal()
			res.Trimmed = ing.Report.TrimmedBases
		}
		if progress != nil {
			fmt.Fprintf(progress, "qc  sort=%-5v %8.0f ingest reads/s  %8.0f map reads/s  %12d wave cycles (+%.1f%%)\n",
				sorted, row.IngestReadsPerSec, row.MapReadsPerSec, row.WaveCycles, row.WaveOverheadPct)
		}
	}
	if res.Rows[0].WaveCycles > 0 {
		res.SortGain = 100 * float64(res.Rows[0].WaveCycles-res.Rows[1].WaveCycles) / float64(res.Rows[0].WaveCycles)
	}
	return res, nil
}

// PrintQCBench renders the sweep.
func PrintQCBench(w io.Writer, res *QCBenchResult) {
	fmt.Fprintf(w, "\nQC ingest — %s (%d bases), %d records at %d bp (%d malformed, %d rejected, %d survivors, %d bases trimmed)\n",
		res.Reference, res.RefBases, res.Records, res.ReadLen,
		res.Malformed, res.Rejected, res.Survivors, res.Trimmed)
	fmt.Fprintf(w, "%-10s %14s %14s %14s %14s %10s\n",
		"sort", "ingest r/s", "map r/s", "kernel cyc", "wave cyc", "overhead")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10v %14.0f %14.0f %14d %14d %9.1f%%\n",
			r.QualitySort, r.IngestReadsPerSec, r.MapReadsPerSec,
			r.KernelCycles, r.WaveCycles, r.WaveOverheadPct)
	}
	fmt.Fprintf(w, "quality-sort recovers %.1f%% of wave cycles\n", res.SortGain)
}

// WriteQCJSON serializes the sweep (the BENCH_pr10.json payload).
func WriteQCJSON(w io.Writer, res *QCBenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
