package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"reflect"
	"strconv"
	"strings"

	"bwaver/internal/fmindex"
	"bwaver/internal/qc"
	"bwaver/internal/rrr"
)

// JobParams is what a job runs, the one description of a submission's
// parameters from the wire to the journal: every submission route decodes
// into it, admission stores it in the Job, the journal's spec records embed
// it, and the job JSON shows it. The JSON tags are the form field names; the
// fields of the qc object are form fields of their own.
//
// QC is the job's quality-control policy, nil when the policy would do
// nothing beyond a strict parse; validate sets its Paired from the mode.
// A replayed job re-ingests under the journaled policy, and its reject
// accounting flows back through the terminal record (see noteQCReport).
type JobParams struct {
	// Backend is "cpu" or "fpga".
	Backend string `json:"backend"`
	// Mode selects the mapping pipeline: "" (exact matching, or the
	// branching approximate search when Mismatches > 0), modeMem
	// (seed-and-extend, single-end), or modeMemPE (seed-and-extend on
	// interleaved mate pairs with rescue and proper-pair calls).
	Mode string `json:"mode,omitempty"`
	// B and SF are the RRR block size and superblock factor of the index.
	B  int `json:"b"`
	SF int `json:"sf"`
	// Mismatches is the substitution budget; 0 = exact matching.
	Mismatches int        `json:"mismatches"`
	QC         *qc.Policy `json:"qc,omitempty"`
}

// defaultParams is a submission that names no parameter, before validate
// picks the backend.
func defaultParams() JobParams {
	return JobParams{B: defaultB, SF: defaultSF}
}

// policy is the QC policy a job's reads pass through; the zero policy is a
// strict parse.
func (p JobParams) policy() qc.Policy {
	if p.QC == nil {
		return qc.Policy{}
	}
	return *p.QC
}

// validate normalizes and checks decoded parameters, whichever route they
// came by: an empty backend is fpga, the mode decides whether the policy
// pairs mates, and a policy that does nothing is dropped.
func (p *JobParams) validate() error {
	if p.Backend == "" {
		p.Backend = "fpga"
	}
	if p.Backend != "cpu" && p.Backend != "fpga" {
		return fmt.Errorf("backend must be cpu or fpga")
	}
	switch p.Mode {
	case "", modeMem, modeMemPE:
	default:
		return fmt.Errorf("mode must be %s or %s", modeMem, modeMemPE)
	}
	if p.Mode != "" && p.Mismatches != 0 {
		return fmt.Errorf("mode=%s scores alignments; the mismatch budget applies only to the default mode", p.Mode)
	}
	if p.Mismatches < 0 || p.Mismatches > fmindex.MaxMismatchBudget {
		return fmt.Errorf("mismatch budget must be in [0,%d]", fmindex.MaxMismatchBudget)
	}
	if err := (rrr.Params{BlockSize: p.B, SuperblockFactor: p.SF}).Validate(); err != nil {
		return err
	}
	pol := p.policy()
	pol.Paired = p.Mode == modeMemPE
	if err := pol.Validate(); err != nil {
		return err
	}
	p.QC = nil
	if pol.Active() {
		p.QC = &pol
	}
	return nil
}

// DecodeForm reads a form submission's parameters and validates them. Every
// form route decodes through it, and the cluster gateway takes its ring key's
// b and sf from it, so one rule resolves a name: a URL-query value outranks
// the body, and the first value of a name wins. An absent or empty field
// keeps its default.
func DecodeForm(query, body url.Values) (JobParams, error) {
	get := func(name string) string {
		if vs := query[name]; len(vs) > 0 {
			return vs[0]
		}
		return body.Get(name)
	}
	p := defaultParams()
	err := setFormFields(reflect.ValueOf(&p).Elem(), get)
	if err == nil {
		err = p.validate()
	}
	if err != nil {
		return JobParams{}, err
	}
	return p, nil
}

// setFormFields parses each field of the struct v from the form field its
// JSON tag names; a pointer to a struct (the qc object) is filled the same
// way from the same form.
func setFormFields(v reflect.Value, get func(string) string) error {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Pointer {
			sub := reflect.New(f.Type().Elem())
			if err := setFormFields(sub.Elem(), get); err != nil {
				return err
			}
			f.Set(sub)
			continue
		}
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		raw := get(name)
		if raw == "" {
			continue
		}
		var err error
		switch f.Kind() {
		case reflect.String:
			f.SetString(raw)
		case reflect.Int:
			var n int
			n, err = strconv.Atoi(raw)
			f.SetInt(int64(n))
		case reflect.Float64:
			var x float64
			x, err = strconv.ParseFloat(raw, 64)
			f.SetFloat(x)
		case reflect.Bool:
			var b bool
			b, err = strconv.ParseBool(raw)
			f.SetBool(b)
		}
		if err != nil {
			return fmt.Errorf("parameter %s: %w", name, err)
		}
	}
	return nil
}

// decodeJSON reads a JSON body whose keys are the form fields (the qc
// fields inside a "qc" object) and validates it. An absent key, or an empty
// body, keeps its default.
func decodeJSON(body io.Reader) (JobParams, error) {
	p := defaultParams()
	if err := json.NewDecoder(body).Decode(&p); err != nil && err != io.EOF {
		return JobParams{}, fmt.Errorf("bad request body: %w", err)
	}
	if err := p.validate(); err != nil {
		return JobParams{}, err
	}
	return p, nil
}
