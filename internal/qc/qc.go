// Package qc is the quality-aware ingest stage: per-read quality metrics
// (average phred, expected errors, meep — the metrics phredsort computes),
// a filtering policy with fixed reject-reason codes, 3'-quality trimming,
// and an optional stable quality-sort that improves batch homogeneity on
// the modeled device without changing any individual read's mapping.
//
// QC runs at ingest, on the parse side of the pipeline, so the warm mapping
// path (the pooled batch engine) sees only the surviving reads and keeps
// its zero-allocation guarantee.
package qc

import (
	"fmt"
	"io"
	"math"

	"bwaver/internal/dna"
)

// Reject-reason codes. This is a fixed enum — attacker-controlled input can
// never mint a new reason — so journal counters and /metrics labels have
// bounded cardinality.
const (
	// ReasonMalformed: the record did not parse (tolerant decode skipped it).
	ReasonMalformed = "malformed"
	// ReasonTooShort: shorter than Policy.MinLen after trimming.
	ReasonTooShort = "too_short"
	// ReasonTooManyN: more ambiguous bases than Policy.MaxN.
	ReasonTooManyN = "too_many_n"
	// ReasonMaxEE: expected errors above Policy.MaxEE.
	ReasonMaxEE = "max_ee"
	// ReasonMateRejected: the read was fine but its mate was not; paired
	// policies reject mates together so pairing never phase-shifts.
	ReasonMateRejected = "mate_rejected"
)

// Reasons returns every reject-reason code, for metric pre-registration.
func Reasons() []string {
	return []string{ReasonMalformed, ReasonTooShort, ReasonTooManyN, ReasonMaxEE, ReasonMateRejected}
}

// ValidReason reports whether s is one of the fixed reason codes.
func ValidReason(s string) bool {
	for _, r := range Reasons() {
		if s == r {
			return true
		}
	}
	return false
}

// Policy is a per-job quality-control configuration. The zero value is a
// no-op (strict parse, no gates, no trimming, no sorting).
type Policy struct {
	// MinLen rejects reads shorter than this after trimming; 0 disables.
	MinLen int `json:"min_len,omitempty"`
	// MaxEE rejects reads whose expected-error count (sum of per-base error
	// probabilities) exceeds this; 0 disables.
	MaxEE float64 `json:"max_ee,omitempty"`
	// MaxN rejects reads with more than this many ambiguous bases; 0
	// disables.
	MaxN int `json:"max_n,omitempty"`
	// TrimQual trims 3' bases whose phred score is below this; 0 disables.
	TrimQual int `json:"trim_qual,omitempty"`
	// QualitySort stably sorts each ingested batch by ascending expected
	// errors (cleanest reads first). Stable, so CPU and FPGA backends map
	// the identical post-sort order and stay bit-identical.
	QualitySort bool `json:"quality_sort,omitempty"`
	// PhredOffset is the quality encoding base: 33, 64, or 0 to auto-detect.
	PhredOffset int `json:"phred_offset,omitempty"`
	// Paired treats the input as interleaved mates (R1,R2,R1,R2,...):
	// rejecting either mate rejects both, and QualitySort moves pairs as
	// units.
	Paired bool `json:"paired,omitempty"`
	// Tolerant decodes FASTQ tolerantly: malformed records are skipped and
	// counted instead of failing the job.
	Tolerant bool `json:"tolerant,omitempty"`
}

// Active reports whether the policy does anything beyond a strict parse.
func (p Policy) Active() bool {
	return p.MinLen > 0 || p.MaxEE > 0 || p.MaxN > 0 || p.TrimQual > 0 ||
		p.QualitySort || p.Tolerant
}

// Validate rejects nonsensical configurations.
func (p Policy) Validate() error {
	if p.PhredOffset != 0 && p.PhredOffset != 33 && p.PhredOffset != 64 {
		return fmt.Errorf("qc: phred offset must be 0 (auto), 33 or 64, got %d", p.PhredOffset)
	}
	if p.MinLen < 0 || p.MaxN < 0 || p.TrimQual < 0 || p.MaxEE < 0 {
		return fmt.Errorf("qc: thresholds must be non-negative")
	}
	if math.IsNaN(p.MaxEE) || math.IsInf(p.MaxEE, 0) {
		return fmt.Errorf("qc: max_ee must be finite")
	}
	return nil
}

// Metrics are the per-read quality figures, computed after trimming.
type Metrics struct {
	// Length is the read length in bases.
	Length int
	// NCount is the number of ambiguous (non-ACGT) bases.
	NCount int
	// AvgPhred is the error-probability-averaged quality: the phred score
	// of the mean per-base error probability (not the arithmetic mean of
	// scores, which overstates quality).
	AvgPhred float64
	// MaxEE is the expected number of errors: the sum of per-base error
	// probabilities.
	MaxEE float64
	// Meep is the maximum expected error percentage: MaxEE * 100 / Length.
	Meep float64
}

// Measure computes the metrics of one read. qual may be nil (FASTA input),
// in which case the quality-derived figures are zero.
func Measure(seq, qual []byte, offset int) Metrics {
	m := Metrics{Length: len(seq)}
	for _, b := range seq {
		if _, ok := dna.FromByte(b); !ok {
			m.NCount++
		}
	}
	if len(qual) == 0 || offset == 0 {
		return m
	}
	var sumP float64
	for _, q := range qual {
		sumP += phredErrProb(int(q) - offset)
	}
	m.MaxEE = sumP
	if m.Length > 0 {
		m.Meep = m.MaxEE * 100 / float64(m.Length)
		m.AvgPhred = -10 * math.Log10(sumP/float64(len(qual)))
	}
	return m
}

// phredErrProb converts a phred score to an error probability, clamping
// garbage scores (a wrongly-detected offset) into [0,1].
func phredErrProb(q int) float64 {
	if q < 0 {
		return 1
	}
	return math.Pow(10, -float64(q)/10)
}

// DetectOffset inspects quality strings and picks the phred encoding base:
// any byte below 59 proves phred+33, a byte above 74 with none below 59
// indicates phred+64. Ambiguous input (all bytes in the overlap) defaults
// to the modern phred+33.
func DetectOffset(quals ...[]byte) int {
	var ev offsetEvidence
	for _, qual := range quals {
		if ev.add(qual); ev.low {
			break
		}
	}
	return ev.offset()
}

// offsetEvidence is what the quality bytes seen so far say about their
// encoding: low, a byte only phred+33 produces; high, one only phred+64 does.
type offsetEvidence struct{ low, high bool }

func (ev *offsetEvidence) add(qual []byte) {
	for _, b := range qual {
		if b < 59 {
			ev.low = true
			return
		}
		if b > 74 {
			ev.high = true
		}
	}
}

func (ev offsetEvidence) offset() int {
	if ev.high && !ev.low {
		return 64
	}
	return 33
}

// trim3 returns the length seq keeps after 3'-quality trimming: trailing
// bases with phred < threshold are dropped, stopping at the first base at
// or above the threshold.
func trim3(qual []byte, offset, threshold int) int {
	n := len(qual)
	for n > 0 && int(qual[n-1])-offset < threshold {
		n--
	}
	return n
}

// Reject is one dropped read, for streaming clients and per-reason
// accounting. Index is the read's ordinal in the attempted input stream
// (malformed records included), so clients can correlate gaps.
type Reject struct {
	Index  int    `json:"index"`
	ID     string `json:"id,omitempty"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
}

// Report is the ingest accounting block: journaled with the job so replay
// is accounting-identical, and surfaced in /api/stats.
type Report struct {
	// Attempted counts every record the decoder tried, valid or not.
	Attempted int `json:"attempted"`
	// Passed counts reads that survived every gate.
	Passed int `json:"passed"`
	// Malformed counts records the tolerant decoder skipped.
	Malformed int `json:"malformed"`
	// Rejected counts QC-gate drops per reason code.
	Rejected map[string]int `json:"rejected,omitempty"`
	// TrimmedBases counts 3'-trimmed bases across all reads.
	TrimmedBases int `json:"trimmed_bases,omitempty"`
	// PhredOffset is the encoding the gate used (33/64), 0 when no
	// qualities were seen.
	PhredOffset int `json:"phred_offset,omitempty"`
}

// RejectedTotal sums the per-reason reject counts (malformed excluded).
func (r Report) RejectedTotal() int {
	n := 0
	for _, c := range r.Rejected {
		n += c
	}
	return n
}

// Merge accumulates other into r (gateway scatter-gather rollup).
func (r *Report) Merge(other Report) {
	r.Attempted += other.Attempted
	r.Passed += other.Passed
	r.Malformed += other.Malformed
	r.TrimmedBases += other.TrimmedBases
	if r.PhredOffset == 0 {
		r.PhredOffset = other.PhredOffset
	}
	for reason, c := range other.Rejected {
		if r.Rejected == nil {
			r.Rejected = make(map[string]int)
		}
		r.Rejected[reason] += c
	}
}

// Result is the outcome of a one-shot Ingest.
type Result struct {
	Seqs    []dna.Seq
	IDs     []string
	Rejects []Reject
	Report  Report
}

// Ingest parses a whole FASTA/FASTQ stream (plain or gzipped) through the
// policy: tolerant or strict decode, trim, gate, and — when QualitySort is
// set — one stable quality-sort over the surviving set. It is a Source whose
// one batch is the whole stream.
func Ingest(r io.Reader, p Policy) (*Result, error) {
	src, err := NewSource(r, p, 0)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	b, err := src.Next()
	if err != nil && err != io.EOF {
		return nil, err
	}
	return &Result{Seqs: b.Seqs, IDs: b.IDs, Rejects: b.Rejects, Report: src.Report()}, nil
}
