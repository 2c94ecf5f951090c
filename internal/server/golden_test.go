package server

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fpga"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
	"bwaver/internal/runner"
)

// updateGolden rewrites testdata/golden from the current code instead of
// comparing against it. The committed files were written at the commit before
// the emitter stopped using fmt and encoding/json for its rows, so the test
// pins the rows to what those packages produced.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/server/testdata/golden")

// goldenInput is a two-contig reference with repeats plus reads that reach
// every branch of the row writers: several sorted positions per strand, a
// contig-relative position, a hit straddling the contig boundary, unmapped
// reads, and IDs that need TSV sanitising and every kind of JSON escaping.
// Read IDs bypass the FASTQ parser (it cuts IDs at whitespace), which is why
// the runner pulls them from a sliceSource.
type goldenReads struct {
	ref     dna.Seq
	contigs *core.ContigSet
	reads   []dna.Seq
	ids     []string
}

// sliceSource hands parsed reads to the runner a batch at a time, through
// the interface it pulls a job's upload through.
type sliceSource struct {
	ids   []string
	reads []dna.Seq
	batch int
	// beforeNext, when set, runs at the top of every Next: the runner pulls
	// between batches, on the job's goroutine.
	beforeNext func()
}

func (s *sliceSource) Next() (qc.Batch, error) {
	if s.beforeNext != nil {
		s.beforeNext()
	}
	n := min(s.batch, len(s.reads))
	if n == 0 {
		return qc.Batch{}, io.EOF
	}
	b := qc.Batch{IDs: s.ids[:n], Seqs: s.reads[:n]}
	s.ids, s.reads = s.ids[n:], s.reads[n:]
	return b, nil
}

func goldenInput(t *testing.T, paired bool, length int) goldenReads {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 6000, Seed: 77, RepeatFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// One 40-base segment planted three times, in both contigs, so a read
	// from it reports several positions (found in suffix-array order, written
	// sorted).
	copy(ref[1500:1540], ref[300:340])
	copy(ref[4000:4040], ref[300:340])
	const cut = 2500
	contigs, err := core.NewContigSet([]string{"chr<A>&\"q\"", "chrB\xffé"}, []int{cut, len(ref) - cut})
	if err != nil {
		t.Fatal(err)
	}
	in := goldenReads{ref: ref, contigs: contigs}
	if paired {
		pairs, err := readsim.SimulatePairs(ref, readsim.PairConfig{
			Count: 20, ReadLength: 60, InsertMean: 200, InsertStdDev: 20,
			MappingRatio: 0.8, ErrorRate: 0.02, Seed: 79,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			in.reads = append(in.reads, p.R1, p.R2)
			in.ids = append(in.ids, p.ID+"/1", p.ID+"/2")
		}
	} else {
		sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
			Count: 60, Length: length, MappingRatio: 0.7, RevCompFraction: 0.5, Seed: 78,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sim {
			in.reads = append(in.reads, r.Seq)
			in.ids = append(in.ids, r.ID)
		}
		// A read across the contig boundary, and the planted repeat on each
		// strand.
		in.reads = append(in.reads, ref[cut-length/2:cut+length/2], ref[305:305+length], ref[302:308+length].ReverseComplement())
		in.ids = append(in.ids, "straddle", "repeat", "repeat-rc")
	}
	nasty := []string{
		"tab\there", `quote"and\backslash`, "<html>&amp;", "bad\xffutf8", "caf\u00e9 \u2028 sep",
		"", "new\nline\rcr", "ctl\x01\x1f\x7f", "plain-id_1",
	}
	for i, id := range nasty {
		in.ids[i*len(in.ids)/len(nasty)] = id
	}
	return in
}

// TestGoldenRows runs exact, mismatches=1 and mem-pe jobs on both backends,
// and on a farm that dies after the job's first batch so the rest falls back
// to the CPU, each on a stateless and a durable server, and requires the
// result file and the NDJSON stream, read back through the job's spools, to
// be byte-equal to the golden files. mismatch1-short is the case the
// k-mismatch backends used to disagree on: 8 bp reads, nearly all of which
// map exactly and have in-budget neighbours as well.
func TestGoldenRows(t *testing.T) {
	cases := []goldenCase{
		{"exact", 0, "", 30},
		{"mismatch1", 1, "", 30},
		{"mismatch1-short", 1, "", 8},
		{"mem-pe", 0, modeMemPE, 0},
	}
	for _, c := range cases {
		for _, run := range []string{"cpu", "fpga", "fallback"} {
			t.Run(c.name+"/"+run, func(t *testing.T) {
				t.Run("stateless", func(t *testing.T) { goldenRun(t, c, run, "") })
				t.Run("durable", func(t *testing.T) { goldenRun(t, c, run, t.TempDir()) })
			})
		}
	}
}

type goldenCase struct {
	name       string
	mismatches int
	mode       string
	length     int
}

// goldenRun maps case c with run on a server over stateDir ("" = stateless).
func goldenRun(t *testing.T, c goldenCase, run, stateDir string) {
	s := openServer(t, Config{FtabK: 6, Devices: 1, StateDir: stateDir})
	defer s.Close()
	in := goldenInput(t, c.mode == modeMemPE, c.length)
	// The index a served job with these parameters maps against.
	ix, err := core.BuildIndex(in.ref, s.indexConfig(defaultB, defaultSF))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetContigs(in.contigs); err != nil {
		t.Fatal(err)
	}
	backend := run
	if run == "fallback" {
		backend = "fpga"
	}
	job := queueJob(t, s, JobParams{Backend: backend, Mode: c.mode, B: defaultB, SF: defaultSF, Mismatches: c.mismatches}, "golden")
	// Small batches: headers must appear once, not per batch.
	src := &sliceSource{ids: in.ids, reads: in.reads, batch: 16}
	reads := runner.NewReads(src, nil)
	if err := reads.First(); err != nil {
		t.Fatal(err)
	}
	if run == "fallback" {
		dead, err := fpga.ParseFaultPlan("seed=1,persistent=0:kernel")
		if err != nil {
			t.Fatal(err)
		}
		// The runner's first pull follows the first batch's rows.
		src.beforeNext = func() { s.devices[0].EnableFaults(dead, 0) }
	}
	if n, err := s.mapJob(context.Background(), job, &cacheEntry{ix: ix}, reads); err != nil || n != len(in.ids) {
		t.Fatalf("mapped %d of %d reads: %v", n, len(in.ids), err)
	}
	if job.FallbackUsed != (run == "fallback") {
		t.Fatalf("fallback used: %t", job.FallbackUsed)
	}
	if want := stateDir != ""; (job.results.path != "") != want {
		t.Fatalf("results spool at %q on a durable=%t server", job.results.path, want)
	}
	results := readSpool(t, job.results)
	stream, err := job.stream.readCommitted(0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	// The backends are bit-identical, so every run shares one golden.
	compareGolden(t, c.name+".results", results)
	compareGolden(t, c.name+".ndjson", stream)
}

// readSpool returns everything sp holds.
func readSpool(t *testing.T, sp *spool) []byte {
	t.Helper()
	rc, err := sp.open()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d:\n got %q\nwant %q", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", name, len(gl), len(wl))
}
