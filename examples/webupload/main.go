// Webupload: drives the BWaveR web application end-to-end over HTTP — the
// workflow of Fig. 4 in the paper. It starts the server in-process, uploads
// a gzipped synthetic reference (FASTA) and read set (FASTQ), polls the job
// page, and downloads the result TSV.
//
//	go run ./examples/webupload
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"mime/multipart"
	"net"
	"net/http"
	"strings"
	"time"

	"bwaver/internal/fastx"
	"bwaver/internal/readsim"
	"bwaver/internal/server"
)

func main() {
	// Synthesise the upload files, gzipped as the web app accepts.
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 100_000, Seed: 2, RepeatFraction: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 2000, Length: 80, MappingRatio: 0.8, RevCompFraction: 0.5, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	var refBuf bytes.Buffer
	fw := fastx.NewWriter(&refBuf, fastx.FASTA, true)
	if err := fw.Write(&fastx.Record{ID: "synthetic", Seq: []byte(ref.String())}); err != nil {
		log.Fatal(err)
	}
	fw.Close()
	var readsBuf bytes.Buffer
	qw := fastx.NewWriter(&readsBuf, fastx.FASTQ, true)
	for _, r := range sim {
		if err := qw.Write(&fastx.Record{ID: r.ID, Seq: []byte(r.Seq.String())}); err != nil {
			log.Fatal(err)
		}
	}
	qw.Close()

	// Start the web application.
	srv, err := server.Open(server.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	web := &http.Server{Handler: srv.Handler()}
	go web.Serve(ln)
	defer web.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("server running at", base)

	// Upload through the jobs endpoint, exactly as the browser form would.
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	mw.WriteField("b", "15")
	mw.WriteField("sf", "50")
	mw.WriteField("backend", "fpga")
	rf, _ := mw.CreateFormFile("reference", "ref.fa.gz")
	rf.Write(refBuf.Bytes())
	qf, _ := mw.CreateFormFile("reads", "reads.fq.gz")
	qf.Write(readsBuf.Bytes())
	mw.Close()

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Post(base+"/jobs", mw.FormDataContentType(), &form)
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		log.Fatalf("submit returned %d", resp.StatusCode)
	}
	jobURL := base + resp.Header.Get("Location")
	fmt.Println("job submitted:", jobURL)

	// Poll the job page until it is done, as the browser's refresh does.
	for i := 0; ; i++ {
		resp, err := http.Get(jobURL)
		if err != nil {
			log.Fatal(err)
		}
		page, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(page), "— done") {
			break
		}
		if strings.Contains(string(page), "— failed") {
			log.Fatalf("job failed:\n%s", page)
		}
		if i > 100 {
			log.Fatal("job did not finish")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Download the results.
	resp, err = http.Get(jobURL + "/results")
	if err != nil {
		log.Fatal(err)
	}
	tsv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(tsv)), "\n")
	fmt.Printf("downloaded %d result rows; first three:\n", len(lines)-1)
	for _, line := range lines[1:4] {
		fmt.Println(" ", line)
	}

	// Verify against the simulation truth.
	mapped := 0
	for _, line := range lines[1:] {
		if strings.Split(line, "\t")[1] == "true" {
			mapped++
		}
	}
	fmt.Printf("%d/%d reads mapped (expected ~%d)\n", mapped, len(sim), int(0.8*float64(len(sim))))
}
