package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/readsim"
	"bwaver/internal/runner"
	"bwaver/internal/server"
)

// writeTestFiles generates a reference FASTA and a reads FASTQ in dir and
// returns their paths plus the simulated reads for truth checking.
func writeTestFiles(t *testing.T, dir string) (refPath, readsPath string, sim []readsim.Read) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 8000, Seed: 4, RepeatFraction: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	sim, err = readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 80, Length: 50, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	refPath = filepath.Join(dir, "ref.fa")
	rf, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	w := fastx.NewWriter(rf, fastx.FASTA, false)
	if err := w.Write(&fastx.Record{ID: "ref", Seq: []byte(ref.String())}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rf.Close()

	readsPath = filepath.Join(dir, "reads.fq")
	qf, err := os.Create(readsPath)
	if err != nil {
		t.Fatal(err)
	}
	qw := fastx.NewWriter(qf, fastx.FASTQ, false)
	for _, r := range sim {
		if err := qw.Write(&fastx.Record{ID: r.ID, Seq: []byte(r.Seq.String())}); err != nil {
			t.Fatal(err)
		}
	}
	qw.Close()
	qf.Close()
	return refPath, readsPath, sim
}

func TestIndexMapStatsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	refPath, readsPath, sim := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "ref.bwx")

	var out bytes.Buffer
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath, "-b", "15", "-sf", "50"}, &out); err != nil {
		t.Fatalf("index: %v", err)
	}
	if !strings.Contains(out.String(), "indexed 8000 bases") {
		t.Errorf("index output: %q", out.String())
	}

	for _, backend := range []string{"cpu", "fpga"} {
		tsvPath := filepath.Join(dir, backend+".tsv")
		out.Reset()
		if err := run([]string{"map", "-index", indexPath, "-reads", readsPath,
			"-backend", backend, "-out", tsvPath}, &out); err != nil {
			t.Fatalf("map %s: %v", backend, err)
		}
		data, err := os.ReadFile(tsvPath)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != len(sim)+1 {
			t.Fatalf("%s: %d lines, want %d", backend, len(lines), len(sim)+1)
		}
		mapped := map[string]bool{}
		for _, line := range lines[1:] {
			f := strings.Split(line, "\t")
			mapped[f[0]] = f[1] == "true"
		}
		for _, r := range sim {
			if mapped[r.ID] != (r.Origin >= 0) {
				t.Errorf("%s: read %s mapped=%t, want %t", backend, r.ID, mapped[r.ID], r.Origin >= 0)
			}
		}
	}

	out.Reset()
	if err := run([]string{"stats", "-index", indexPath}, &out); err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, want := range []string{"reference length:  8000", "b=15 sf=50", "full-sa"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestMemSubcommand(t *testing.T) {
	dir := t.TempDir()
	refPath, _, _ := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "ref.bwx")
	var out bytes.Buffer
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &out); err != nil {
		t.Fatalf("index: %v", err)
	}

	// Interleaved paired reads with substitution errors — the workload the
	// seed-and-extend pipeline exists for.
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 8000, Seed: 4, RepeatFraction: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: 20, ReadLength: 70, InsertMean: 250, InsertStdDev: 25,
		MappingRatio: 0.9, ErrorRate: 0.02, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	readsPath := filepath.Join(dir, "pairs.fq")
	qf, err := os.Create(readsPath)
	if err != nil {
		t.Fatal(err)
	}
	qw := fastx.NewWriter(qf, fastx.FASTQ, false)
	for _, p := range pairs {
		for m, seq := range []string{p.R1.String(), p.R2.String()} {
			if err := qw.Write(&fastx.Record{ID: fmt.Sprintf("%s/%d", p.ID, m+1), Seq: []byte(seq)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	qw.Close()
	qf.Close()

	var samByBackend [2]string
	for bi, backend := range []string{"cpu", "fpga"} {
		samPath := filepath.Join(dir, backend+".sam")
		out.Reset()
		if err := run([]string{"mem", "-index", indexPath, "-reads", readsPath,
			"-backend", backend, "-paired", "-out", samPath}, &out); err != nil {
			t.Fatalf("mem %s: %v", backend, err)
		}
		data, err := os.ReadFile(samPath)
		if err != nil {
			t.Fatal(err)
		}
		samByBackend[bi] = string(data)
	}
	if samByBackend[0] != samByBackend[1] {
		t.Error("cpu and fpga backends produced different SAM")
	}
	text := samByBackend[0]
	if !strings.HasPrefix(text, "@HD\t") {
		t.Fatalf("mem output is not SAM:\n%.200s", text)
	}
	var records, mapped int
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		records++
		f := strings.Split(line, "\t")
		if len(f) < 11 {
			t.Fatalf("short SAM record: %q", line)
		}
		if f[2] != "*" {
			mapped++
		}
	}
	if records != 2*len(pairs) {
		t.Fatalf("%d SAM records, want %d", records, 2*len(pairs))
	}
	if mapped < records*8/10 {
		t.Errorf("only %d/%d reads mapped", mapped, records)
	}

	if err := run([]string{"mem", "-index", indexPath, "-reads", readsPath, "-backend", "gpu"}, &out); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestIndexLocateModes(t *testing.T) {
	dir := t.TempDir()
	refPath, readsPath, _ := writeTestFiles(t, dir)
	for _, mode := range []string{"full", "sampled", "none"} {
		indexPath := filepath.Join(dir, mode+".bwx")
		var out bytes.Buffer
		if err := run([]string{"index", "-ref", refPath, "-out", indexPath, "-locate", mode}, &out); err != nil {
			t.Fatalf("index -locate %s: %v", mode, err)
		}
		args := []string{"map", "-index", indexPath, "-reads", readsPath, "-out", filepath.Join(dir, mode+".tsv")}
		if mode == "none" {
			args = append(args, "-locate=false")
		}
		if err := run(args, &out); err != nil {
			t.Fatalf("map with %s index: %v", mode, err)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	refPath, readsPath, _ := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "x.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},
		{"bogus"},
		{"index"},
		{"index", "-ref", refPath},
		{"index", "-ref", "/nonexistent", "-out", indexPath},
		{"index", "-ref", refPath, "-out", indexPath, "-locate", "bogus"},
		{"index", "-ref", refPath, "-out", indexPath, "-b", "99"},
		{"map"},
		{"map", "-index", "/nonexistent", "-reads", readsPath},
		{"map", "-index", indexPath, "-reads", "/nonexistent"},
		{"map", "-index", indexPath, "-reads", readsPath, "-backend", "asic"},
		{"stats"},
		{"stats", "-index", "/nonexistent"},
		{"stats", "-index", refPath}, // not an index file
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestMapSAMOutput(t *testing.T) {
	dir := t.TempDir()
	refPath, readsPath, sim := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	samPath := filepath.Join(dir, "out.sam")
	if err := run([]string{"map", "-index", indexPath, "-reads", readsPath,
		"-format", "sam", "-out", samPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(samPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "@SQ\tSN:ref\tLN:8000") {
		t.Errorf("SAM header missing @SQ:\n%.200s", text)
	}
	// Every simulated read must appear; mapped ones with a position, and
	// the planted origin must appear as POS (1-based) on some record.
	for _, r := range sim {
		if !strings.Contains(text, r.ID+"\t") {
			t.Fatalf("read %s missing from SAM", r.ID)
		}
		if r.Origin >= 0 {
			want := "\t" + itoa(r.Origin+1) + "\t"
			if !strings.Contains(text, want) {
				t.Errorf("read %s origin %d not found as SAM POS", r.ID, r.Origin)
			}
		}
	}
	// Reverse-strand reads must carry flag 16 (or 16|256 for secondaries).
	sawReverse := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "@") || line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if f[1] == "16" || f[1] == "272" {
			sawReverse = true
		}
	}
	if !sawReverse {
		t.Error("no reverse-strand SAM records emitted")
	}
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func TestMapSAMRequiresLocate(t *testing.T) {
	dir := t.TempDir()
	refPath, readsPath, _ := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"map", "-index", indexPath, "-reads", readsPath,
		"-format", "sam", "-locate=false"}, &bytes.Buffer{}); err == nil {
		t.Error("sam without locate accepted")
	}
	if err := run([]string{"map", "-index", indexPath, "-reads", readsPath,
		"-format", "xml"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestMultiContigTSV(t *testing.T) {
	dir := t.TempDir()
	// Two-record reference.
	g1, err := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := readsim.Genome(readsim.GenomeConfig{Length: 2000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "multi.fa")
	rf, _ := os.Create(refPath)
	w := fastx.NewWriter(rf, fastx.FASTA, false)
	w.Write(&fastx.Record{ID: "chrA", Seq: []byte(g1.String())})
	w.Write(&fastx.Record{ID: "chrB", Seq: []byte(g2.String())})
	w.Close()
	rf.Close()

	// One read planted inside chrB, the same with a substitution, and one
	// that straddles the two records in the concatenated text.
	mutated := g2[700:760].Clone()
	mutated[30] = (mutated[30] + 1) % 4
	straddle := append(g1[2970:].Clone(), g2[:30]...)
	readsPath := filepath.Join(dir, "reads.fq")
	qf, _ := os.Create(readsPath)
	qw := fastx.NewWriter(qf, fastx.FASTQ, false)
	qw.Write(&fastx.Record{ID: "planted", Seq: []byte(g2[700:760].String())})
	qw.Write(&fastx.Record{ID: "mutated", Seq: []byte(mutated.String())})
	qw.Write(&fastx.Record{ID: "straddle", Seq: []byte(straddle.String())})
	qw.Close()
	qf.Close()

	indexPath := filepath.Join(dir, "multi.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"map", "-index", indexPath, "-reads", readsPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chrB:700") {
		t.Errorf("TSV lacks contig-relative position chrB:700:\n%s", out.String())
	}

	// The k-mismatch TSV resolves positions the same way, on either backend.
	want := "read\tmapped\tbest_mismatches\toccurrences\tbest_positions\n" +
		"planted\ttrue\t0\t1\tchrB:700\n" +
		"mutated\ttrue\t1\t1\tchrB:700\n" +
		"straddle\ttrue\t0\t1\tboundary@2970\n"
	for _, backend := range []string{"cpu", "fpga"} {
		out.Reset()
		if err := run([]string{"map", "-index", indexPath, "-reads", readsPath, "-mismatches", "1", "-backend", backend}, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Errorf("%s k-mismatch TSV:\n%swant:\n%s", backend, out.String(), want)
		}
	}
}

func TestExtractAndVerify(t *testing.T) {
	dir := t.TempDir()
	refPath, _, _ := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// verify against the original must pass.
	var out bytes.Buffer
	if err := run([]string{"verify", "-index", indexPath, "-ref", refPath}, &out); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(out.String(), "matches") {
		t.Errorf("verify output: %q", out.String())
	}
	// extract, re-index the extraction, verify against the original FASTA.
	extractedPath := filepath.Join(dir, "extracted.fa")
	if err := run([]string{"extract", "-index", indexPath, "-out", extractedPath}, &bytes.Buffer{}); err != nil {
		t.Fatalf("extract: %v", err)
	}
	origData, _ := os.ReadFile(refPath)
	extData, _ := os.ReadFile(extractedPath)
	orig, err := fastx.ReadAll(bytes.NewReader(origData))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := fastx.ReadAll(bytes.NewReader(extData))
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 1 || string(ext[0].Seq) != string(orig[0].Seq) {
		t.Error("extracted FASTA differs from original")
	}
	// verify against a different reference must fail.
	otherRef, _, _ := writeTestFiles(t, t.TempDir())
	_ = otherRef
	badDir := t.TempDir()
	badRefPath, _, _ := func() (string, string, []readsim.Read) {
		// regenerate with a different seed by tweaking one base
		data, _ := os.ReadFile(refPath)
		mutated := bytes.Replace(data, []byte("ACG"), []byte("ACT"), 1)
		p := filepath.Join(badDir, "mut.fa")
		os.WriteFile(p, mutated, 0o644)
		return p, "", nil
	}()
	if err := run([]string{"verify", "-index", indexPath, "-ref", badRefPath}, &bytes.Buffer{}); err == nil {
		t.Error("verify accepted a mutated reference")
	}
	// Multi-contig extract preserves record structure.
	multiPath := filepath.Join(dir, "multi.fa")
	mf, _ := os.Create(multiPath)
	w := fastx.NewWriter(mf, fastx.FASTA, false)
	w.Write(&fastx.Record{ID: "c1", Seq: []byte("ACGTACGTACGTACGTACGT")})
	w.Write(&fastx.Record{ID: "c2", Seq: []byte("TTTTGGGGCCCCAAAATTTT")})
	w.Close()
	mf.Close()
	multiIndex := filepath.Join(dir, "multi.bwx")
	if err := run([]string{"index", "-ref", multiPath, "-out", multiIndex}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	multiOut := filepath.Join(dir, "multi-ext.fa")
	if err := run([]string{"extract", "-index", multiIndex, "-out", multiOut}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	med, _ := os.ReadFile(multiOut)
	recs, err := fastx.ReadAll(bytes.NewReader(med))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "c1" || string(recs[1].Seq) != "TTTTGGGGCCCCAAAATTTT" {
		t.Errorf("multi-contig extraction wrong: %+v", recs)
	}
	if err := run([]string{"verify", "-index", multiIndex, "-ref", multiPath}, &bytes.Buffer{}); err != nil {
		t.Errorf("multi-contig verify failed: %v", err)
	}
}

func TestMapWithMismatches(t *testing.T) {
	dir := t.TempDir()
	// Reference plus reads with exactly one substitution each.
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 9000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 40, Length: 50, MappingRatio: 1, ErrorRate: 0.02, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "ref.fa")
	rf, _ := os.Create(refPath)
	w := fastx.NewWriter(rf, fastx.FASTA, false)
	w.Write(&fastx.Record{ID: "ref", Seq: []byte(ref.String())})
	w.Close()
	rf.Close()
	readsPath := filepath.Join(dir, "reads.fq")
	qf, _ := os.Create(readsPath)
	qw := fastx.NewWriter(qf, fastx.FASTQ, false)
	for _, r := range sim {
		qw.Write(&fastx.Record{ID: r.ID, Seq: []byte(r.Seq.String())})
	}
	qw.Close()
	qf.Close()
	indexPath := filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	for _, backend := range []string{"cpu", "fpga"} {
		var out bytes.Buffer
		if err := run([]string{"map", "-index", indexPath, "-reads", readsPath,
			"-backend", backend, "-mismatches", "2"}, &out); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != len(sim)+1 {
			t.Fatalf("%s: %d lines, want %d", backend, len(lines), len(sim)+1)
		}
		byID := map[string][]string{}
		for _, line := range lines[1:] {
			f := strings.Split(line, "\t")
			byID[f[0]] = f
		}
		for _, r := range sim {
			f := byID[r.ID]
			if f == nil {
				t.Fatalf("%s: read %s missing", backend, r.ID)
			}
			wantMM := r.Errors
			if wantMM > 2 {
				continue // beyond budget; may or may not map elsewhere
			}
			if f[1] != "true" {
				t.Errorf("%s: read %s with %d errors did not map", backend, r.ID, r.Errors)
				continue
			}
			if f[2] != itoa(wantMM) {
				t.Errorf("%s: read %s best_mismatches=%s, want %d", backend, r.ID, f[2], wantMM)
			}
			// Origin must appear among best positions.
			if !strings.Contains(","+f[4]+",", ","+itoa(r.Origin)+",") {
				t.Errorf("%s: read %s origin %d not in positions %s", backend, r.ID, r.Origin, f[4])
			}
		}
	}
	// Negative budget rejected.
	if err := run([]string{"map", "-index", indexPath, "-reads", readsPath, "-mismatches", "-1"}, &bytes.Buffer{}); err == nil {
		t.Error("negative mismatches accepted")
	}
	if err := run([]string{"map", "-index", indexPath, "-reads", readsPath, "-mismatches", "1", "-format", "sam"}, &bytes.Buffer{}); err == nil {
		t.Error("mismatches+sam accepted")
	}
}

// writeMates writes one mate of each pair, picked by mate, as a FASTQ named
// name in dir and returns its path.
func writeMates(t *testing.T, dir, name string, pairs []readsim.Pair, mate func(p readsim.Pair) dna.Seq) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := fastx.NewWriter(f, fastx.FASTQ, false)
	for _, p := range pairs {
		if err := w.Write(&fastx.Record{ID: p.ID, Seq: []byte(mate(p).String())}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func mate1(p readsim.Pair) dna.Seq { return p.R1 }
func mate2(p readsim.Pair) dna.Seq { return p.R2 }

// pairedFixture indexes a 30 kbp reference and writes 60 simulated pairs
// against it as two mate files.
func pairedFixture(t *testing.T) (dir, indexPath, r1Path, r2Path string, pairs []readsim.Pair) {
	t.Helper()
	dir = t.TempDir()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 30000, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err = readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: 60, ReadLength: 50, InsertMean: 300, InsertStdDev: 20,
		MappingRatio: 0.8, Seed: 62,
	})
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "ref.fa")
	rf, _ := os.Create(refPath)
	w := fastx.NewWriter(rf, fastx.FASTA, false)
	w.Write(&fastx.Record{ID: "ref", Seq: []byte(ref.String())})
	w.Close()
	rf.Close()
	indexPath = filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	return dir, indexPath, writeMates(t, dir, "r1.fq", pairs, mate1), writeMates(t, dir, "r2.fq", pairs, mate2), pairs
}

func TestMapPairedEnd(t *testing.T) {
	dir, indexPath, r1Path, r2Path, pairs := pairedFixture(t)
	var out bytes.Buffer
	if err := run([]string{"map", "-index", indexPath, "-reads", r1Path, "-reads2", r2Path,
		"-min-insert", "200", "-max-insert", "400"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(pairs)+1 {
		t.Fatalf("%d lines, want %d", len(lines), len(pairs)+1)
	}
	byID := map[string][]string{}
	for _, line := range lines[1:] {
		f := strings.Split(line, "\t")
		byID[f[0]] = f
	}
	for _, p := range pairs {
		f := byID[p.ID]
		wantConcordant := p.Origin >= 0
		if (f[1] == "true") != wantConcordant {
			t.Errorf("pair %s concordant=%s, want %t", p.ID, f[1], wantConcordant)
		}
		if wantConcordant && f[4] != itoa(p.Origin) {
			// The best (lowest-position) placement is usually the truth for
			// unique fragments; tolerate repeats by checking insert too.
			if f[5] != itoa(p.Insert) {
				t.Logf("pair %s: best placement %s/%s, truth %d/%d (repeat?)", p.ID, f[4], f[5], p.Origin, p.Insert)
			}
		}
	}
	// Mismatched mate counts must fail.
	short := writeMates(t, dir, "short.fq", pairs[:2], mate1)
	if err := run([]string{"map", "-index", indexPath, "-reads", r1Path, "-reads2", short}, &bytes.Buffer{}); err == nil {
		t.Error("mismatched mate counts accepted")
	}
	// Paired SAM output: proper flags, mate fields, TLEN symmetry.
	var samOut bytes.Buffer
	if err := run([]string{"map", "-index", indexPath, "-reads", r1Path, "-reads2", r2Path,
		"-min-insert", "200", "-max-insert", "400", "-format", "sam"}, &samOut); err != nil {
		t.Fatalf("paired SAM: %v", err)
	}
	properPairs := 0
	tlenByName := map[string][]int{}
	for _, line := range strings.Split(strings.TrimSpace(samOut.String()), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		f := strings.Split(line, "\t")
		var flag, tlen int
		fmt.Sscanf(f[1], "%d", &flag)
		fmt.Sscanf(f[8], "%d", &tlen)
		if flag&0x1 == 0 {
			t.Fatalf("record without paired flag: %s", line)
		}
		if flag&0x2 != 0 {
			properPairs++
			if f[6] != "=" {
				t.Errorf("proper pair with RNEXT %q", f[6])
			}
			tlenByName[f[0]] = append(tlenByName[f[0]], tlen)
		}
	}
	if properPairs == 0 {
		t.Fatal("no proper pairs emitted")
	}
	for name, tlens := range tlenByName {
		if len(tlens) != 2 || tlens[0] != -tlens[1] {
			t.Errorf("pair %s TLENs %v not symmetric", name, tlens)
		}
	}
	// Paired mapping refuses the flags it cannot honour, naming each.
	for _, c := range []struct{ flags []string }{
		{[]string{"-mismatches", "1"}},
		{[]string{"-backend", "gpu"}},
		{[]string{"-locate=false"}},
		{[]string{"-min-len", "20"}},
		{[]string{"-tolerant"}},
	} {
		args := append([]string{"map", "-index", indexPath, "-reads", r1Path, "-reads2", r2Path}, c.flags...)
		err := run(args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), strings.SplitN(c.flags[0], "=", 2)[0]) {
			t.Errorf("paired %v: error %v, want one naming the flag", c.flags, err)
		}
	}
}

// TestMapPairedRunShapes: two-file pairs stream through the runner like any
// other run, so their TSV and SAM are one answer whatever the backend, the
// worker count or the batch size, an fpga run writes its profile, and a mate
// file that ends before the other or goes on past it fails the run wherever
// that happens.
func TestMapPairedRunShapes(t *testing.T) {
	dir, indexPath, r1Path, r2Path, pairs := pairedFixture(t)
	defer func(saved int) { streamBatch = saved }(streamBatch)
	outPath := filepath.Join(dir, "out")
	mapPairs := func(r2 string, batch int, flags ...string) ([]byte, error) {
		streamBatch = batch
		args := append([]string{"map", "-index", indexPath, "-reads", r1Path, "-reads2", r2,
			"-min-insert", "200", "-max-insert", "400", "-out", outPath}, flags...)
		if err := run(args, &bytes.Buffer{}); err != nil {
			return nil, err
		}
		return os.ReadFile(outPath)
	}
	for _, format := range []string{"tsv", "sam"} {
		want, err := mapPairs(r2Path, runner.DefaultStreamBatch, "-format", format)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []string{"cpu", "fpga"} {
			for _, workers := range []string{"1", "4"} {
				for _, batch := range []int{1, 3, 0} {
					got, err := mapPairs(r2Path, batch, "-format", format, "-backend", backend, "-workers", workers)
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("%s on %s, %s workers, batch %d: %v, output equal to the default run's: %t",
							format, backend, workers, batch, err, bytes.Equal(got, want))
					}
				}
			}
		}
	}
	profile := filepath.Join(dir, "profile.json")
	if _, err := mapPairs(r2Path, 4, "-backend", "fpga", "-profile", profile); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(profile); err != nil || !json.Valid(data) {
		t.Errorf("paired fpga run wrote no JSON profile: %v", err)
	}
	// The batches of four pairs written before the mismatch stand.
	for _, c := range []struct {
		name  string
		mates []readsim.Pair
		rows  int
	}{
		{"mate 2 ends mid-batch", pairs[:58], 56},
		{"mate 2 ends at a batch boundary", pairs[:56], 56},
		{"mate 2 goes on", append(append([]readsim.Pair{}, pairs...), pairs[:2]...), 60},
	} {
		r2 := writeMates(t, dir, "mates.fq", c.mates, mate2)
		if _, err := mapPairs(r2, 4); err == nil || !strings.Contains(err.Error(), "mate-count mismatch") {
			t.Errorf("%s: %v, want a mate-count mismatch", c.name, err)
		}
		if data, _ := os.ReadFile(outPath); bytes.Count(data, []byte("\n")) != c.rows+1 {
			t.Errorf("%s: %d lines written, want a header and %d rows", c.name, bytes.Count(data, []byte("\n")), c.rows)
		}
	}
}

// TestMapPairsAcrossRecords: a pair placement whose fragment straddles two
// reference records is dropped in both formats before the best is chosen, and
// the TSV names the best one's record.
func TestMapPairsAcrossRecords(t *testing.T) {
	dir := t.TempDir()
	g, err := readsim.Genome(readsim.GenomeConfig{Length: 2000, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	// The 120 bp fragment x straddles chrA|chrB at 200 and recurs inside
	// chrB at offset 260 (global 520).
	x := g[1000:1120]
	chrA := append(g[0:200].Clone(), x[:60]...)
	chrB := append(append(append(x[60:].Clone(), g[300:500]...), x...), g[600:700]...)
	refPath := filepath.Join(dir, "two.fa")
	rf, _ := os.Create(refPath)
	w := fastx.NewWriter(rf, fastx.FASTA, false)
	w.Write(&fastx.Record{ID: "chrA", Seq: []byte(chrA.String())})
	w.Write(&fastx.Record{ID: "chrB", Seq: []byte(chrB.String())})
	w.Close()
	rf.Close()
	indexPath := filepath.Join(dir, "two.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	pair := []readsim.Pair{{ID: "frag", R1: x[:30], R2: x[90:].ReverseComplement()}}
	r1 := writeMates(t, dir, "r1.fq", pair, mate1)
	r2 := writeMates(t, dir, "r2.fq", pair, mate2)
	mapPair := func(format string) string {
		var out bytes.Buffer
		if err := run([]string{"map", "-index", indexPath, "-reads", r1, "-reads2", r2,
			"-min-insert", "100", "-max-insert", "200", "-format", format}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	want := "pair\tconcordant\tambiguous\tplacements\tbest_pos\tbest_insert\n" +
		"frag\ttrue\tfalse\t1\tchrB:260\t120\n"
	if got := mapPair("tsv"); got != want {
		t.Errorf("TSV:\n%swant:\n%s", got, want)
	}
	var records []string
	for _, line := range strings.Split(strings.TrimSpace(mapPair("sam")), "\n") {
		if !strings.HasPrefix(line, "@") {
			f := strings.Split(line, "\t")
			records = append(records, strings.Join(f[1:9], " "))
		}
	}
	if want := []string{"99 chrB 261 60 30M = 351 120", "147 chrB 351 60 30M = 261 -120"}; !slices.Equal(records, want) {
		t.Errorf("SAM records %q, want %q", records, want)
	}
}

func TestStatsVerbose(t *testing.T) {
	dir := t.TempDir()
	refPath, _, _ := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"stats", "-index", indexPath, "-verbose"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"wavelet nodes", "ACGT", "entropy", "contigs:"} {
		if !strings.Contains(text, want) {
			t.Errorf("verbose stats missing %q:\n%s", want, text)
		}
	}
	// Three node rows for the DNA alphabet.
	if strings.Count(text, "\n  ") < 4 { // 1 contig row + 3 node rows
		t.Errorf("verbose stats too short:\n%s", text)
	}
}

func TestFPGAReportCommand(t *testing.T) {
	dir := t.TempDir()
	refPath, _, _ := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"fpga-report", "-index", indexPath, "-avg-steps", "40", "-pes", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"URAM", "BRAM36", "processing elements:          2", "reads/s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"fpga-report"}, &bytes.Buffer{}); err == nil {
		t.Error("missing index accepted")
	}
}

// streamCase is one workload as the CLI and the server each ask for it.
type streamCase struct {
	name   string
	cli    []string          // subcommand and its workload flags
	served map[string]string // the same workload as submit form fields
}

var streamCases = []streamCase{
	{"exact", []string{"map"}, nil},
	{"mismatch1", []string{"map", "-mismatches", "1"}, map[string]string{"mismatches": "1"}},
	{"mem", []string{"mem"}, map[string]string{"mode": "mem"}},
	{"mem-paired", []string{"mem", "-paired"}, map[string]string{"mode": "mem-pe"}},
}

// writePairs writes count interleaved mate pairs with substitution errors
// (R1, R2, ... named /1 and /2), a file every workload can map, and returns
// its path.
func writePairs(t *testing.T, dir string, ref dna.Seq, count int) string {
	t.Helper()
	pairs, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: count, ReadLength: 70, InsertMean: 250, InsertStdDev: 25,
		MappingRatio: 0.9, ErrorRate: 0.02, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "pairs.fq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := fastx.NewWriter(f, fastx.FASTQ, false)
	for _, p := range pairs {
		for m, seq := range []string{p.R1.String(), p.R2.String()} {
			if err := w.Write(&fastx.Record{ID: fmt.Sprintf("%s/%d", p.ID, m+1), Seq: []byte(seq)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

// streamFixture indexes writeTestFiles' reference and writes 40 read pairs
// against it.
func streamFixture(t *testing.T) (dir, refPath, indexPath, readsPath string) {
	dir = t.TempDir()
	refPath, _, _ = writeTestFiles(t, dir)
	indexPath = filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 8000, Seed: 4, RepeatFraction: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	return dir, refPath, indexPath, writePairs(t, dir, ref, 40)
}

// cliOutput runs one CLI workload at one batch size and returns its -out file.
func cliOutput(t *testing.T, c streamCase, backend, indexPath, readsPath, outPath string, batch int) []byte {
	t.Helper()
	defer func(saved int) { streamBatch = saved }(streamBatch)
	streamBatch = batch
	args := append(append([]string{}, c.cli...), "-index", indexPath, "-reads", readsPath, "-backend", backend, "-out", outPath)
	if err := run(args, &bytes.Buffer{}); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// servedResults runs a job on a stateless server and returns its results file.
func servedResults(t *testing.T, refPath, readsPath string, fields map[string]string) []byte {
	t.Helper()
	s, err := server.Open(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for k, v := range fields {
		mw.WriteField(k, v)
	}
	for part, path := range map[string]string{"reference": refPath, "reads": readsPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fw, _ := mw.CreateFormFile(part, filepath.Base(path))
		fw.Write(data)
	}
	mw.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs", &body)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID int `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}
	// Drain waits for the job; its results stay readable.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := http.Get(fmt.Sprintf("%s/jobs/%d/results", ts.URL, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("job %d results: %d %v\n%s", job.ID, res.StatusCode, err, data)
	}
	return data
}

// TestMapStreaming: every run streams, and what it writes depends neither on
// the batch size — the default, one read, seven (odd, so a paired run rounds
// it to eight), or the whole input as one batch — nor on the front end: the
// CLI and the server map through one runner and render with one encoder, so
// `bwaver map`/`mem -out` writes byte for byte the results file a stateless
// served job on the same FASTQ does, on either backend.
func TestMapStreaming(t *testing.T) {
	dir, refPath, indexPath, readsPath := streamFixture(t)
	for _, c := range streamCases {
		for _, backend := range []string{"cpu", "fpga"} {
			fields := map[string]string{"backend": backend}
			for k, v := range c.served {
				fields[k] = v
			}
			want := servedResults(t, refPath, readsPath, fields)
			for _, batch := range []int{streamBatch, 1, 7, 0} {
				if got := cliOutput(t, c, backend, indexPath, readsPath, filepath.Join(dir, "out"), batch); !bytes.Equal(got, want) {
					t.Errorf("%s/%s at batch size %d: CLI output differs from the served results\ncli:\n%.300s\nserved:\n%.300s",
						c.name, backend, batch, got, want)
				}
			}
		}
	}
}

// watchedFile counts the bytes read from a reads file, and firstWrite records
// that count when the run writes its first output byte.
type watchedFile struct {
	io.ReadCloser
	n int64
}

func (w *watchedFile) Read(p []byte) (int, error) {
	n, err := w.ReadCloser.Read(p)
	w.n += int64(n)
	return n, err
}

type firstWrite struct {
	reads *[]*watchedFile // the run's, as it opens them
	at    int64           // the most read from one of them
}

func (f *firstWrite) Write(p []byte) (int, error) {
	if f.at < 0 && len(p) > 0 {
		for _, w := range *f.reads {
			f.at = max(f.at, w.n)
		}
	}
	return len(p), nil
}

// TestCLIMapsInBoundedMemory: a run writes a batch's rows before it reads the
// next batch, in every mode, so its first row goes out with no more than
// about two batches of a 40-batch input read (plus the decoder's 64 KiB
// buffer) — from each file of two-file pairs, here one file read twice.
func TestCLIMapsInBoundedMemory(t *testing.T) {
	const batch, batches = 512, 40
	dir := t.TempDir()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 20000, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "ref.fa")
	rf, _ := os.Create(refPath)
	fw := fastx.NewWriter(rf, fastx.FASTA, false)
	fw.Write(&fastx.Record{ID: "ref", Seq: []byte(ref.String())})
	fw.Close()
	rf.Close()
	indexPath := filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath, "-ftab-k", "0"}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	readsPath := writePairs(t, dir, ref, batch*batches/2)
	fi, err := os.Stat(readsPath)
	if err != nil {
		t.Fatal(err)
	}
	batchBytes := fi.Size() / batches

	defer func(saved int, open func(string) (io.ReadCloser, error)) {
		streamBatch, openReads = saved, open
	}(streamBatch, openReads)
	streamBatch = batch
	for _, args := range [][]string{{"map"}, {"map", "-mismatches", "1"}, {"mem", "-paired"}, {"map", "-reads2", readsPath}} {
		var watches []*watchedFile
		openReads = func(path string) (io.ReadCloser, error) {
			f, err := os.Open(path)
			watches = append(watches, &watchedFile{ReadCloser: f})
			return watches[len(watches)-1], err
		}
		out := &firstWrite{reads: &watches, at: -1}
		args = append(args, "-index", indexPath, "-reads", readsPath)
		if err := run(args, out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		for _, watch := range watches {
			if watch.n != fi.Size() {
				t.Fatalf("%v read %d of %d input bytes", args, watch.n, fi.Size())
			}
		}
		if out.at < 0 || out.at > 2*batchBytes+64<<10 {
			t.Errorf("%v wrote its first row with %d of %d input bytes read (a batch is %d); it read ahead of its mapping",
				args, out.at, fi.Size(), batchBytes)
		}
	}
}

func TestIndexVerifyAndProfileJSON(t *testing.T) {
	dir := t.TempDir()
	refPath, readsPath, _ := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"verify", "-index", indexPath, "-ref", refPath}, &bytes.Buffer{}); err != nil {
		t.Fatalf("index fails verification: %v", err)
	}

	// FPGA profile JSON.
	profilePath := filepath.Join(dir, "profile.json")
	if err := run([]string{"map", "-index", indexPath, "-reads", readsPath,
		"-backend", "fpga", "-profile", profilePath, "-out", filepath.Join(dir, "r.tsv")}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(profilePath)
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Events []struct {
			Name string
		}
		TotalNs      int64   `json:"total_ns"`
		EnergyJoules float64 `json:"energy_joules"`
		KernelCycles uint64
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("profile not valid JSON: %v\n%s", err, data)
	}
	if len(payload.Events) < 5 || payload.TotalNs <= 0 || payload.EnergyJoules <= 0 || payload.KernelCycles == 0 {
		t.Errorf("profile payload incomplete: %+v", payload)
	}
}

// TestMapEmptyReadMapsNowhere pins the row of a read with no bases, given so
// or trimmed to nothing by -trim-qual: unmapped in the exact TSV, one
// unmapped SAM record, and unmapped in the k-mismatch TSV — not a hit at
// every reference position — and the same rows on -backend fpga.
func TestMapEmptyReadMapsNowhere(t *testing.T) {
	dir := t.TempDir()
	refPath, _, sim := writeTestFiles(t, dir)
	indexPath := filepath.Join(dir, "ref.bwx")
	if err := run([]string{"index", "-ref", refPath, "-out", indexPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(sim, func(r readsim.Read) bool { return r.Origin >= 0 })
	hit := sim[i].Seq.String()
	readsPath := filepath.Join(dir, "empty.fq")
	fq := "@empty\n\n+\n\n@hit\n" + hit + "\n+\n" + strings.Repeat("I", len(hit)) + "\n@lowq\nACGTAC\n+\n######\n"
	if err := os.WriteFile(readsPath, []byte(fq), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want map[string]string // read ID → its row, for the reads that map nowhere
	}{
		{[]string{"-trim-qual", "20"}, map[string]string{
			"empty": "empty\tfalse\t0\t-\t0\t-", "lowq": "lowq\tfalse\t0\t-\t0\t-"}},
		{[]string{"-trim-qual", "20", "-format", "sam"}, map[string]string{
			"empty": "empty\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", "lowq": "lowq\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*"}},
		{[]string{"-trim-qual", "20", "-mismatches", "1"}, map[string]string{
			"empty": "empty\tfalse\t-1\t0\t-", "lowq": "lowq\tfalse\t-1\t0\t-"}},
		{[]string{"-mismatches", "2"}, map[string]string{"empty": "empty\tfalse\t-1\t0\t-"}},
	} {
		var out, fpgaOut bytes.Buffer
		args := append([]string{"map", "-index", indexPath, "-reads", readsPath}, tc.args...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if err := run(append(args, "-backend", "fpga"), &fpgaOut); err != nil {
			t.Fatalf("%v -backend fpga: %v", tc.args, err)
		}
		if fpgaOut.String() != out.String() {
			t.Errorf("%v: -backend fpga rows differ from cpu:\n%s\nvs\n%s", tc.args, fpgaOut.String(), out.String())
		}
		rows := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			if id, _, _ := strings.Cut(line, "\t"); !strings.HasPrefix(id, "@") {
				rows[id] = line
			}
		}
		for id, want := range tc.want {
			if rows[id] != want {
				t.Errorf("%v: read %s row %q, want %q", tc.args, id, rows[id], want)
			}
		}
		if f := strings.Split(rows["hit"], "\t"); len(f) < 2 || (f[1] != "true" && f[1] != "0" && f[1] != "16") {
			t.Errorf("%v: the reference read did not map: %q", tc.args, rows["hit"])
		}
	}
}
