package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/fastx"
	"bwaver/internal/readsim"
)

// BenchmarkServedWarmExactJob is one warm job through the served path, the
// unit of the served-mix-ecoli workload at a tenth of its reference: a durable
// server (journal, payload files, results file, stream spill) over loopback
// HTTP, the index of a 460 kbp reference already cached, 5 000 × 100 bp reads
// per job; an operation is POST /jobs plus the NDJSON stream read to its
// terminal event. B/op and allocs/op count the whole process — the client's
// share is the request it sends and the lines it scans — next to upload-B/job,
// the bytes a job puts on the wire.
func BenchmarkServedWarmExactJob(b *testing.B) {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 460_000, Seed: 5, RepeatFraction: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 5000, Length: 100, MappingRatio: 0.9, RevCompFraction: 0.5, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	var fasta, fastq bytes.Buffer
	fw := fastx.NewWriter(&fasta, fastx.FASTA, false)
	if err := fw.Write(&fastx.Record{ID: "benchref", Seq: []byte(ref.String())}); err != nil {
		b.Fatal(err)
	}
	fw.Close()
	qw := fastx.NewWriter(&fastq, fastx.FASTQ, false)
	for _, r := range sim {
		if err := qw.Write(&fastx.Record{ID: r.ID, Seq: []byte(r.Seq.String())}); err != nil {
			b.Fatal(err)
		}
	}
	qw.Close()
	body, contentType := orderedUpload(b, field("backend", "cpu"),
		upload("reference", fasta.Bytes()), upload("reads", fastq.Bytes()))

	s, err := Open(Config{StateDir: b.TempDir(), FtabK: core.DefaultFtabK})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job := func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		var accepted struct {
			ID int `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&accepted)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("submit: status %d, %v", resp.StatusCode, err)
		}
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/api/jobs/%d/stream", ts.URL, accepted.ID), nil)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		rows, last := 0, []byte(nil)
		br := bufio.NewReaderSize(resp.Body, 1<<16)
		for {
			line, err := br.ReadSlice('\n')
			if len(line) > 0 {
				rows++
				last = append(last[:0], line...)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if rows != len(sim)+1 || !bytes.HasPrefix(last, []byte(`{"event":"done"`)) {
			b.Fatalf("job %d: %d lines, last %.80s", accepted.ID, rows, last)
		}
	}
	job() // the cold job: builds and caches the index
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		job()
	}
	b.ReportMetric(float64(len(body)), "upload-B/job")
}
