package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"bwaver/internal/fmindex"
	"bwaver/internal/qc"
)

// specKeys are the job JSON and journal keys a job's params occupy.
var specKeys = []string{"backend", "mode", "b", "sf", "mismatches", "qc"}

// specOf keeps the spec keys of a decoded job JSON or journal record.
func specOf(m map[string]any) map[string]any {
	out := map[string]any{}
	for _, k := range specKeys {
		if v, ok := m[k]; ok {
			out[k] = v
		}
	}
	return out
}

// journaledSpec returns the spec keys of job id's first record of type typ.
func journaledSpec(t *testing.T, stateDir string, id int, typ string) map[string]any {
	t.Helper()
	f, err := os.Open(filepath.Join(stateDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["job"] == float64(id) && rec["type"] == typ {
			return specOf(rec)
		}
	}
	t.Fatalf("journal holds no %s record of job %d", typ, id)
	return nil
}

// Every submission route decodes the same job: multipart POST /jobs,
// urlencoded POST /api/jobs and JSON POST /api/jobs, given the same
// parameters, show equal params in the job JSON and in the journaled spec,
// and refuse the same invalid parameters with the same message.
func TestEveryRouteDecodesTheSameJob(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	stateDir := t.TempDir()
	s := openServer(t, Config{StateDir: stateDir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type route struct {
		name    string
		created int    // status of an accepted submission
		record  string // the journal record that carries the spec
		submit  func(query, form url.Values, jsonBody string) (int, map[string]any)
	}
	post := func(path string, query url.Values, body []byte, ctype string) (int, map[string]any) {
		u := ts.URL + path
		if len(query) > 0 {
			u += "?" + query.Encode()
		}
		code, payload, _ := doJSON(t, http.MethodPost, u, body, map[string]string{
			"Content-Type": ctype, "Accept": "application/json",
		})
		return code, payload
	}
	routes := []route{
		{"multipart", http.StatusOK, recAccepted, func(query, form url.Values, _ string) (int, map[string]any) {
			var parts []formPart
			for name, vs := range form {
				for _, v := range vs {
					parts = append(parts, field(name, v))
				}
			}
			parts = append(parts, upload("reference", refFasta), upload("reads", readsFastq))
			body, ctype := orderedUpload(t, parts...)
			return post("/jobs", query, body, ctype)
		}},
		{"urlencoded", http.StatusCreated, recUploading, func(query, form url.Values, _ string) (int, map[string]any) {
			return post("/api/jobs", query, []byte(form.Encode()), "application/x-www-form-urlencoded")
		}},
		// A JSON body has no query: it carries the values the form routes
		// resolve.
		{"json", http.StatusCreated, recUploading, func(_, _ url.Values, jsonBody string) (int, map[string]any) {
			return post("/api/jobs", nil, []byte(jsonBody), "application/json")
		}},
	}

	fullQC := url.Values{
		"backend": {"cpu"}, "mode": {modeMemPE}, "b": {"12"}, "sf": {"40"},
		"min_len": {"30"}, "max_ee": {"2.5"}, "max_n": {"3"}, "trim_qual": {"10"},
		"quality_sort": {"true"}, "phred_offset": {"33"}, "tolerant": {"true"},
	}
	cases := []struct {
		name     string
		query    url.Values
		form     url.Values
		jsonBody string
		want     JobParams
		wantErr  string
	}{
		{name: "empty body takes the defaults", form: url.Values{}, jsonBody: "",
			want: JobParams{Backend: "fpga", B: defaultB, SF: defaultSF}},
		{name: "every qc field", form: fullQC,
			jsonBody: `{"backend":"cpu","mode":"mem-pe","b":12,"sf":40,"qc":{"min_len":30,"max_ee":2.5,"max_n":3,` +
				`"trim_qual":10,"quality_sort":true,"phred_offset":33,"tolerant":true}}`,
			want: JobParams{Backend: "cpu", Mode: modeMemPE, B: 12, SF: 40, QC: &qc.Policy{
				MinLen: 30, MaxEE: 2.5, MaxN: 3, TrimQual: 10, QualitySort: true, PhredOffset: 33, Paired: true, Tolerant: true,
			}}},
		{name: "mismatch budget", form: url.Values{"backend": {"cpu"}, "mismatches": {"2"}},
			jsonBody: `{"backend":"cpu","mismatches":2}`,
			want:     JobParams{Backend: "cpu", B: defaultB, SF: defaultSF, Mismatches: 2}},
		{name: "query outranks the body, first body value wins",
			query: url.Values{"b": {"12"}}, form: url.Values{"b": {"14"}, "sf": {"40", "45"}},
			jsonBody: `{"b":12,"sf":40}`,
			want:     JobParams{Backend: "fpga", B: 12, SF: 40}},
		{name: "mode decides pairing", form: url.Values{"paired": {"true"}, "min_len": {"5"}},
			jsonBody: `{"qc":{"paired":true,"min_len":5}}`,
			want:     JobParams{Backend: "fpga", B: defaultB, SF: defaultSF, QC: &qc.Policy{MinLen: 5}}},
		{name: "backend", form: url.Values{"backend": {"gpu"}}, jsonBody: `{"backend":"gpu"}`,
			wantErr: "backend must be cpu or fpga"},
		{name: "mode", form: url.Values{"mode": {"bwa"}}, jsonBody: `{"mode":"bwa"}`,
			wantErr: "mode must be mem or mem-pe"},
		{name: "mismatches with a mem mode", form: url.Values{"mode": {modeMem}, "mismatches": {"1"}},
			jsonBody: `{"mode":"mem","mismatches":1}`, wantErr: "mismatch budget applies only to the default mode"},
		{name: "mismatch budget range", form: url.Values{"mismatches": {"99"}}, jsonBody: `{"mismatches":99}`,
			wantErr: fmt.Sprintf("mismatch budget must be in [0,%d]", fmindex.MaxMismatchBudget)},
		{name: "block size", form: url.Values{"b": {"1"}}, jsonBody: `{"b":1}`, wantErr: "rrr"},
		{name: "superblock factor", form: url.Values{"sf": {"0"}}, jsonBody: `{"sf":0}`, wantErr: "rrr"},
		{name: "negative threshold", form: url.Values{"min_len": {"-1"}}, jsonBody: `{"qc":{"min_len":-1}}`,
			wantErr: "qc: thresholds must be non-negative"},
		{name: "phred offset", form: url.Values{"phred_offset": {"40"}}, jsonBody: `{"qc":{"phred_offset":40}}`,
			wantErr: "qc: phred offset must be"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var firstSpec map[string]any
			firstErr := ""
			for _, rt := range routes {
				code, payload := rt.submit(c.query, c.form, c.jsonBody)
				if c.wantErr != "" {
					msg, _ := payload["error"].(string)
					if code != http.StatusBadRequest || !strings.Contains(msg, c.wantErr) {
						t.Fatalf("%s: %d %v, want 400 with %q", rt.name, code, payload, c.wantErr)
					}
					if firstErr == "" {
						firstErr = msg
					} else if msg != firstErr {
						t.Errorf("%s answers %q, %s %q", rt.name, msg, routes[0].name, firstErr)
					}
					continue
				}
				if code != rt.created {
					t.Fatalf("%s: %d %v, want %d", rt.name, code, payload, rt.created)
				}
				id := int(payload["id"].(float64))
				_, job, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/api/jobs/%d", ts.URL, id), nil, nil)
				spec := specOf(job)
				if journaled := journaledSpec(t, stateDir, id, rt.record); !reflect.DeepEqual(journaled, spec) {
					t.Errorf("%s: journaled spec %v, job JSON %v", rt.name, journaled, spec)
				}
				if firstSpec == nil {
					firstSpec = spec
				} else if !reflect.DeepEqual(spec, firstSpec) {
					t.Errorf("%s: spec %v, %s %v", rt.name, spec, routes[0].name, firstSpec)
				}
			}
			if c.wantErr != "" {
				return
			}
			raw, _ := json.Marshal(c.want)
			var want map[string]any
			json.Unmarshal(raw, &want)
			if !reflect.DeepEqual(firstSpec, specOf(want)) {
				t.Errorf("spec %v, want %v", firstSpec, specOf(want))
			}
		})
	}
	s.Wait()
}

// paramKinds maps every form field to the JSON type that carries it; qc
// fields sit in the body's "qc" object. "x" is a field no decoder knows.
var paramKinds = []struct{ name, kind string }{
	{"backend", "string"}, {"mode", "string"}, {"b", "int"}, {"sf", "int"}, {"mismatches", "int"},
	{"min_len", "qc int"}, {"max_ee", "qc float"}, {"max_n", "qc int"}, {"trim_qual", "qc int"},
	{"quality_sort", "qc bool"}, {"phred_offset", "qc int"}, {"paired", "qc bool"}, {"tolerant", "qc bool"},
	{"x", "ignored"},
}

// jsonLiteral writes a form value as the JSON value of the given kind; ok is
// false when JSON cannot carry it.
func jsonLiteral(kind, v string) (lit any, ok bool) {
	switch strings.TrimPrefix(kind, "qc ") {
	case "int":
		n, err := strconv.Atoi(v)
		return n, err == nil
	case "float":
		x, err := strconv.ParseFloat(v, 64)
		return x, err == nil && !math.IsNaN(x) && !math.IsInf(x, 0)
	case "bool":
		b, err := strconv.ParseBool(v)
		return b, err == nil
	case "string":
		return v, utf8.ValidString(v)
	default:
		return v, true
	}
}

// FuzzJobParams: a field map decodes to the same params as a form and as a
// JSON body, or is refused by both with the same message. Each plan byte
// draws a field (its high bit puts it in the URL query), values are the
// '|'-separated fields of vals. A value JSON cannot carry must be one the form
// refuses, and accepted params survive the journal's JSON round trip.
func FuzzJobParams(f *testing.F) {
	f.Add([]byte{0, 2, 3}, "cpu|12|40")
	f.Add([]byte{1, 5, 6, 9, 11}, "mem-pe|30|2.5|true|1")
	f.Add([]byte{2, 130, 3}, "14|12|abc")
	f.Add([]byte{4, 1}, "2|mem")
	f.Add([]byte{6, 12}, "inf|x")
	f.Add([]byte{10, 7, 8}, "40|-1|t")
	f.Fuzz(func(t *testing.T, plan []byte, vals string) {
		values := strings.Split(vals, "|")
		query, body := url.Values{}, url.Values{}
		for i, b := range plan {
			if i >= len(values) {
				break
			}
			name := paramKinds[int(b&0x7f)%len(paramKinds)].name
			if b&0x80 != 0 {
				query.Add(name, values[i])
			} else {
				body.Add(name, values[i])
			}
		}
		fromForm, formErr := DecodeForm(query, body)
		if formErr == nil {
			raw, err := json.Marshal(fromForm)
			if err != nil {
				t.Fatalf("accepted params %+v do not marshal: %v", fromForm, err)
			}
			var back JobParams
			if err := json.Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(back, fromForm) {
				t.Fatalf("params %+v come back from the journal as %+v (%v)", fromForm, back, err)
			}
		}

		top, qcObj := map[string]any{}, map[string]any{}
		for _, pk := range paramKinds {
			v := query.Get(pk.name)
			if _, inQuery := query[pk.name]; !inQuery {
				v = body.Get(pk.name)
			}
			if v == "" {
				continue
			}
			lit, ok := jsonLiteral(pk.kind, v)
			if !ok {
				if formErr == nil {
					t.Fatalf("form accepted %s=%q, which JSON cannot carry: %+v", pk.name, v, fromForm)
				}
				return
			}
			if strings.HasPrefix(pk.kind, "qc ") {
				qcObj[pk.name] = lit
			} else {
				top[pk.name] = lit
			}
		}
		if len(qcObj) > 0 {
			top["qc"] = qcObj
		}
		raw, err := json.Marshal(top)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, jsonErr := decodeJSON(bytes.NewReader(raw))
		switch {
		case (formErr == nil) != (jsonErr == nil):
			t.Fatalf("form %v, JSON %s %v", formErr, raw, jsonErr)
		case formErr != nil && formErr.Error() != jsonErr.Error():
			t.Fatalf("form refuses with %q, JSON %s with %q", formErr, raw, jsonErr)
		case formErr == nil && !reflect.DeepEqual(fromForm, fromJSON):
			t.Fatalf("form decodes %+v (qc %+v), JSON %s decodes %+v (qc %+v)",
				fromForm, fromForm.QC, raw, fromJSON, fromJSON.QC)
		}
	})
}
