package server

import (
	"fmt"
	"strconv"

	"bwaver/internal/qc"
)

// QC policy wiring: per-job quality-control parameters arrive with the
// submission (multipart form fields or the chunked-ingest JSON body), are
// validated against the fixed qc reason/threshold rules, journaled with the
// job spec, and applied by the qc.Source the job pulls its batches from.
// Reject accounting flows the other way: per-job reports land in the journal's
// terminal records (so replay is accounting-identical), in the server-wide
// qcTotals behind /api/stats and /metrics, and on the NDJSON stream as one
// reject row per dropped read.

// qcParams is the wire form of a QC policy on the chunked-ingest JSON body.
// Pointers distinguish "absent" from zero, like the b/sf parameters.
type qcParams struct {
	MinLen      *int     `json:"min_len"`
	MaxEE       *float64 `json:"max_ee"`
	MaxN        *int     `json:"max_n"`
	TrimQual    *int     `json:"trim_qual"`
	QualitySort *bool    `json:"quality_sort"`
	PhredOffset *int     `json:"phred_offset"`
	Tolerant    *bool    `json:"tolerant"`
}

// policy folds the JSON parameters into a qc.Policy; mode decides pairing.
func (p qcParams) policy(mode string) (qc.Policy, error) {
	pol := qc.Policy{Paired: mode == ModeMemPE}
	if p.MinLen != nil {
		pol.MinLen = *p.MinLen
	}
	if p.MaxEE != nil {
		pol.MaxEE = *p.MaxEE
	}
	if p.MaxN != nil {
		pol.MaxN = *p.MaxN
	}
	if p.TrimQual != nil {
		pol.TrimQual = *p.TrimQual
	}
	if p.QualitySort != nil {
		pol.QualitySort = *p.QualitySort
	}
	if p.PhredOffset != nil {
		pol.PhredOffset = *p.PhredOffset
	}
	if p.Tolerant != nil {
		pol.Tolerant = *p.Tolerant
	}
	if err := pol.Validate(); err != nil {
		return qc.Policy{}, err
	}
	return pol, nil
}

// qcPolicyFromForm reads the QC fields off a form-style submission (the
// multipart upload and the urlencoded chunked-create variant share it).
// Absent fields leave the zero (inactive) policy; mode decides pairing.
func qcPolicyFromForm(get func(string) string, mode string) (qc.Policy, error) {
	pol := qc.Policy{Paired: mode == ModeMemPE}
	intField := func(name string, dst *int) error {
		v := get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("parameter %s: %w", name, err)
		}
		*dst = n
		return nil
	}
	boolField := func(name string, dst *bool) error {
		v := get(name)
		if v == "" {
			return nil
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("parameter %s: %w", name, err)
		}
		*dst = b
		return nil
	}
	if err := intField("min_len", &pol.MinLen); err != nil {
		return qc.Policy{}, err
	}
	if v := get("max_ee"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return qc.Policy{}, fmt.Errorf("parameter max_ee: %w", err)
		}
		pol.MaxEE = f
	}
	if err := intField("max_n", &pol.MaxN); err != nil {
		return qc.Policy{}, err
	}
	if err := intField("trim_qual", &pol.TrimQual); err != nil {
		return qc.Policy{}, err
	}
	if err := intField("phred_offset", &pol.PhredOffset); err != nil {
		return qc.Policy{}, err
	}
	if err := boolField("quality_sort", &pol.QualitySort); err != nil {
		return qc.Policy{}, err
	}
	if err := boolField("tolerant", &pol.Tolerant); err != nil {
		return qc.Policy{}, err
	}
	if err := pol.Validate(); err != nil {
		return qc.Policy{}, err
	}
	return pol, nil
}

// sanitizeQCReport clamps a report read back from the journal to the fixed
// reason enum — the cardinality guard. The gate only ever writes enum
// reasons, so anything else means a hand-edited or corrupted journal; those
// counts are folded under "invalid" instead of minting new stats keys.
func sanitizeQCReport(rep *qc.Report) {
	if rep == nil || len(rep.Rejected) == 0 {
		return
	}
	invalid := 0
	for reason, n := range rep.Rejected {
		if !qc.ValidReason(reason) {
			invalid += n
			delete(rep.Rejected, reason)
		}
	}
	if invalid > 0 {
		rep.Rejected["invalid"] += invalid
	}
}
