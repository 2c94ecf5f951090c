package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
)

// Read IDs are user input: tabs and newlines become spaces, so they cannot
// corrupt a row.
func TestSanitizeID(t *testing.T) {
	if got := sanitizeID("a\tb\nc\rd"); got != "a b c d" {
		t.Fatalf("sanitizeID = %q", got)
	}
}

// appendJSONString must agree with encoding/json on every string, whichever
// of its two paths a string takes.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "read00000001", "a b", `q"uote`, `back\slash`, "<tag>", "a<b", "a>b", "a&b", "tab\there", "nl\n", "\x00\x1f", "del\x7f",
		"caf\u00e9", "\u2028\u2029", "bad\xff", "\xc3", "emoji \U0001F9EC", "chr1:100,chr2:5",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
		if got := appendJSONString([]byte("x"), []byte(s)); !bytes.Equal(got[1:], want) {
			t.Errorf("appendJSONString([]byte(%q)) = %s, want %s", s, got[1:], want)
		}
	}
}

// hostileIDs are read names that JSON must escape or replace and TSV must
// sanitize: a tab, a quote, HTML characters, U+2028, control bytes, invalid
// UTF-8 and no name at all.
var hostileIDs = []string{"tab\there", `q"uote`, "<&>", "line\u2028sep", "ctl\x01\x1f", "bad\xff\xfe", ""}

// twoRecords returns an index over two 3 kbp records, chrA and chrB, and
// their concatenation.
func twoRecords(t *testing.T) (*core.Index, dna.Seq) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 6000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.NewContigSet([]string{"chrA", "chrB"}, []int{3000, 3000})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetContigs(cs); err != nil {
		t.Fatal(err)
	}
	return ix, ref
}

// withRejects splits ids and seqs into batches of size and gives the first
// two batches reject lines, the second an out-of-enum reason, and adds a
// batch of rejects alone.
func withRejects(ids []string, seqs []dna.Seq, size int) []qc.Batch {
	var list []qc.Batch
	for lo := 0; lo < len(seqs); lo += size {
		hi := min(lo+size, len(seqs))
		list = append(list, qc.Batch{IDs: ids[lo:hi], Seqs: seqs[lo:hi]})
	}
	list[0].Rejects = []qc.Reject{
		{Index: 2, ID: "tab\tand \"quote\" <&>", Reason: "too_short", Detail: "length 3 < 20"},
		{Index: 5, ID: "bad\xff", Reason: "low_quality"},
	}
	if len(list) > 1 {
		list[1].Rejects = []qc.Reject{{Index: 9, Reason: "made-up", Detail: "ctl\x01 "}}
	}
	return append(list, qc.Batch{Rejects: []qc.Reject{{Index: 99, ID: "last", Reason: "too_short"}}})
}

// streamed runs w over list with stream lines on and returns each batch's
// text and lines; the same run with them off must write the same text and no
// line.
func streamed[R any](t *testing.T, list []qc.Batch, w func() Work[R], ix *core.Index) (texts, lines [][]byte) {
	t.Helper()
	var plain bytes.Buffer
	for _, stream := range []bool{false, true} {
		rows := NewRows(ix)
		rows.Stream = stream
		_, err := Run(context.Background(), NewReads(&batches{list: list}, nil), w(), rows, Options{
			Emit: func(_ qc.Batch, text, nd []byte) error {
				if !stream {
					plain.Write(text)
					if len(nd) > 0 {
						t.Errorf("rows without a stream rendered lines %q", nd)
					}
					return nil
				}
				texts = append(texts, bytes.Clone(text))
				lines = append(lines, bytes.Clone(nd))
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := bytes.Join(texts, nil); !bytes.Equal(got, plain.Bytes()) {
		t.Errorf("streaming changed the text:\n%s\nwant\n%s", got, plain.Bytes())
	}
	return texts, lines
}

// field is one key and value of a decoded NDJSON line, in line order.
type field struct {
	key string
	val any
}

// decode parses one NDJSON line with encoding/json, keeping key order.
func decode(t *testing.T, line string) []field {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("line %q does not open an object: %v", line, err)
	}
	var out []field
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		val, err := dec.Token()
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		out = append(out, field{key.(string), val})
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') || dec.More() {
		t.Fatalf("line %q does not close one object: %v", line, err)
	}
	return out
}

// cell renders a decoded value as its TSV cell. A string comes back from
// JSON with each invalid UTF-8 byte replaced, so the cell it is compared
// with takes the same replacement (jsonText).
func cell(v any) string {
	switch v := v.(type) {
	case string:
		return v
	case bool:
		return strconv.FormatBool(v)
	case float64:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return "?"
}

// jsonText is s as JSON carries it: each invalid UTF-8 byte becomes U+FFFD.
func jsonText(s string) string { return string([]rune(s)) }

// splitLines splits text into its lines.
func splitLines(text []byte) []string {
	s := strings.TrimSuffix(string(text), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// checkRejects checks a batch's leading lines against its rejects and
// returns the lines after them.
func checkRejects(t *testing.T, b qc.Batch, lines []string) []string {
	t.Helper()
	if len(lines) < len(b.Rejects) {
		t.Fatalf("%d lines for %d rejects", len(lines), len(b.Rejects))
	}
	for i, rej := range b.Rejects {
		reason := rej.Reason
		if !qc.ValidReason(reason) {
			reason = "invalid"
		}
		want := []field{{"event", "qc_reject"}, {"index", float64(rej.Index)}}
		if rej.ID != "" {
			want = append(want, field{"id", jsonText(sanitizeID(rej.ID))})
		}
		want = append(want, field{"reason", reason})
		if rej.Detail != "" {
			want = append(want, field{"detail", jsonText(rej.Detail)})
		}
		if got := decode(t, lines[i]); !equalFields(got, want) {
			t.Errorf("reject line %q decodes to %v, want %v", lines[i], got, want)
		}
	}
	return lines[len(b.Rejects):]
}

func equalFields(a, b []field) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkTSV holds every row line of a TSV run to its row: the line's keys are
// the header's columns, in order, and each value reads as the row's cell.
// perRow is how many reads make a row.
func checkTSV(t *testing.T, list []qc.Batch, texts, lines [][]byte, perRow int) {
	t.Helper()
	var header []string
	for i, b := range list {
		rows := splitLines(texts[i])
		if i == 0 {
			header, rows = strings.Split(rows[0], "\t"), rows[1:]
		}
		nd := checkRejects(t, b, splitLines(lines[i]))
		if len(rows) != len(b.Seqs)/perRow || len(nd) != len(rows) {
			t.Fatalf("batch %d: %d reads, %d rows, %d row lines", i, len(b.Seqs), len(rows), len(nd))
		}
		for r, row := range rows {
			cells := strings.Split(row, "\t")
			got := decode(t, nd[r])
			if len(cells) != len(header) || len(got) != len(header) {
				t.Fatalf("row %q, line %q: %d cells and %d keys under %d columns", row, nd[r], len(cells), len(got), len(header))
			}
			for c, col := range header {
				if got[c].key != col || cell(got[c].val) != jsonText(cells[c]) {
					t.Errorf("row %q column %s: line %q holds %s=%v", row, col, nd[r], got[c].key, got[c].val)
				}
			}
		}
	}
}

// checkSAM holds every line of a seed-and-extend run to the SAM record it
// mirrors: one record and one line per read, the line carrying the record's
// name, flag, placement and MAPQ and the AS, NM and XR tags' scoring, the
// placement keys left out of an unmapped read's line.
func checkSAM(t *testing.T, list []qc.Batch, texts, lines [][]byte) (mapped, unmapped, paired int) {
	t.Helper()
	for i, b := range list {
		var recs []string
		for _, l := range splitLines(texts[i]) {
			if !strings.HasPrefix(l, "@") {
				recs = append(recs, l)
			}
		}
		nd := checkRejects(t, b, splitLines(lines[i]))
		if len(recs) != len(b.Seqs) || len(nd) != len(recs) {
			t.Fatalf("batch %d: %d reads, %d records, %d record lines", i, len(b.Seqs), len(recs), len(nd))
		}
		for r, rec := range recs {
			f := strings.Split(rec, "\t")
			flag, _ := strconv.Atoi(f[1])
			isMapped := flag&4 == 0
			want := []field{{"read", jsonText(f[0])}, {"mapped", isMapped}, {"flag", float64(flag)}}
			if !isMapped {
				unmapped++
				want = append(want, field{"mapq", 0.0}, field{"score", 0.0}, field{"nm", 0.0})
			} else {
				mapped++
				tag := func(name string) string {
					for _, tg := range f[11:] {
						if v, ok := strings.CutPrefix(tg, name+":i:"); ok {
							return v
						}
					}
					return ""
				}
				num := func(s string) float64 { n, _ := strconv.Atoi(s); return float64(n) }
				want = append(want, field{"rname", f[2]}, field{"pos", num(f[3])}, field{"mapq", num(f[4])}, field{"cigar", f[5]})
				if f[8] != "0" {
					paired++
					want = append(want, field{"tlen", num(f[8])})
				}
				want = append(want, field{"score", num(tag("AS"))}, field{"nm", num(tag("NM"))})
				if tag("XR") == "1" {
					want = append(want, field{"rescued", true})
				}
			}
			if got := decode(t, nd[r]); !equalFields(got, want) {
				t.Errorf("record %q: line %q decodes to %v, want %v", rec, nd[r], got, want)
			}
		}
	}
	return mapped, unmapped, paired
}

// Rows renders a batch's NDJSON stream lines in the pass that renders its
// TSV or SAM: reject lines first, then one line per row whose fields are the
// row's, for hostile read names and a hit straddling two records alike.
func TestRowsStreamLinesMirrorRows(t *testing.T) {
	ix, ref := twoRecords(t)
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{Count: 30, Length: 60, MappingRatio: 0.8,
		RevCompFraction: 0.5, ErrorRate: 0.01, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	var seqs []dna.Seq
	for i, r := range sim {
		id := r.ID
		if i < len(hostileIDs) {
			id = hostileIDs[i]
		}
		ids, seqs = append(ids, id), append(seqs, r.Seq)
	}
	// A read across the chrA/chrB boundary.
	ids, seqs = append(ids, "straddle"), append(seqs, ref[2970:3030])
	list := withRejects(ids, seqs, 8)

	t.Run("exact", func(t *testing.T) {
		texts, lines := streamed(t, list, func() Work[core.MapResult] { return Exact(ix, true) }, ix)
		checkTSV(t, list, texts, lines, 1)
		if !bytes.Contains(bytes.Join(lines, nil), []byte(`"fw_positions":"boundary@2970"`)) {
			t.Error("no line carries the straddling hit")
		}
	})
	t.Run("mismatches", func(t *testing.T) {
		texts, lines := streamed(t, list, func() Work[core.ApproxResult] { return Approx(ix, 1, true) }, ix)
		checkTSV(t, list, texts, lines, 1)
	})
	t.Run("mem", func(t *testing.T) {
		texts, lines := streamed(t, list, func() Work[core.MemResult] {
			return Mem(ix, core.MemOptions{}, func(core.MemStats, bool) {})
		}, ix)
		if mapped, unmapped, _ := checkSAM(t, list, texts, lines); mapped == 0 || unmapped == 0 {
			t.Errorf("%d mapped and %d unmapped records, want both", mapped, unmapped)
		}
	})

	pairs, err := readsim.SimulatePairs(ref, readsim.PairConfig{Count: 12, ReadLength: 60, InsertMean: 200,
		InsertStdDev: 20, MappingRatio: 0.9, ErrorRate: 0.01, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	ids, seqs = nil, nil
	for i, p := range pairs {
		id := p.ID
		if i < len(hostileIDs) {
			id = hostileIDs[i]
		}
		ids, seqs = append(ids, id, id), append(seqs, p.R1, p.R2)
	}
	t.Run("mem-paired", func(t *testing.T) {
		// One batch of pairs and an odd trailing read, the straddling one,
		// which maps single-end.
		list := withRejects(append(ids, "straddle"), append(seqs, ref[2970:3030]), len(seqs)+1)
		texts, lines := streamed(t, list, func() Work[core.MemResult] {
			return Mem(ix, core.MemOptions{Paired: true}, func(core.MemStats, bool) {})
		}, ix)
		if _, _, paired := checkSAM(t, list, texts, lines); paired == 0 {
			t.Error("no record carries a template length")
		}
	})
	t.Run("pairs", func(t *testing.T) {
		list := withRejects(ids, seqs, 8)
		texts, lines := streamed(t, list, func() Work[core.MapResult] {
			return ExactPairs(ix, core.PairOptions{MinInsert: 100, MaxInsert: 300}, false)
		}, ix)
		checkTSV(t, list, texts, lines, 2)
	})
	t.Run("exact-sam", func(t *testing.T) {
		_, lines := streamed(t, list, func() Work[core.MapResult] { return ExactSAM(ix) }, ix)
		for i, b := range list {
			if rest := checkRejects(t, b, splitLines(lines[i])); len(rest) > 0 {
				t.Errorf("exact SAM batch %d rendered lines %q", i, rest)
			}
		}
	})
}
