package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// formPart is one part of a hand-ordered multipart body: a plain field when
// file is false, a file upload (it carries a filename) otherwise.
type formPart struct {
	name string
	data []byte
	file bool
}

func field(name, value string) formPart { return formPart{name: name, data: []byte(value)} }
func upload(name string, data []byte) formPart {
	return formPart{name: name, data: data, file: true}
}

// orderedUpload renders parts in exactly the given order (buildUpload ranges
// over maps, so it cannot pin an order).
func orderedUpload(t testing.TB, parts ...formPart) (body []byte, contentType string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		var w io.Writer
		var err error
		if p.file {
			w, err = mw.CreateFormFile(p.name, p.name+".txt")
		} else {
			w, err = mw.CreateFormField(p.name)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(p.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

// TestSubmitMultipartEdgeCases pins the status codes, messages and field
// precedence of POST /jobs: the handler scans the body itself, and everything
// http.Request.ParseMultipartForm and FormValue used to decide must come out
// the same. The durable run also requires every rejected submission to leave
// no staged part in payloads/.
func TestSubmitMultipartEdgeCases(t *testing.T) {
	submitEdgeCases(t, "")
	t.Run("durable", func(t *testing.T) { submitEdgeCases(t, t.TempDir()) })
}

func submitEdgeCases(t *testing.T, stateDir string) {
	refFasta, readsFastq, _ := testData(t)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(refFasta)
	zw.Close()

	const maxUpload = 1 << 20
	s := openServer(t, Config{MaxUploadBytes: maxUpload, StateDir: stateDir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// noStaged fails t when a staged part outlived its request.
	noStaged := func(t *testing.T) {
		t.Helper()
		if stateDir == "" {
			return
		}
		if staged, _ := filepath.Glob(filepath.Join(stateDir, stagedPayload)); len(staged) > 0 {
			t.Fatalf("a rejected submission left %v behind", staged)
		}
	}
	post := func(t *testing.T, query string, body io.Reader, contentType string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs"+query, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(text)
	}
	// accepted posts parts, requires a 200 and returns the finished job.
	accepted := func(t *testing.T, query string, parts ...formPart) jobJSON {
		t.Helper()
		body, ctype := orderedUpload(t, parts...)
		code, text := post(t, query, bytes.NewReader(body), ctype)
		if code != http.StatusOK {
			t.Fatalf("submit returned %d: %s", code, text)
		}
		var j jobJSON
		if err := json.Unmarshal([]byte(text), &j); err != nil || j.ID == 0 {
			t.Fatalf("no job in %s", text)
		}
		return waitForState(t, ts, j.ID, stateDone)
	}
	rejected := func(t *testing.T, wantMsg string, parts ...formPart) {
		t.Helper()
		body, ctype := orderedUpload(t, parts...)
		code, text := post(t, "", bytes.NewReader(body), ctype)
		if code != http.StatusBadRequest || !strings.Contains(text, wantMsg) {
			t.Fatalf("submit returned %d %s, want 400 with %q", code, text, wantMsg)
		}
		noStaged(t)
	}
	ref, reads := upload("reference", refFasta), upload("reads", readsFastq)

	plain := accepted(t, "", field("backend", "cpu"), ref, reads)
	plainRows := fetchResults(t, ts, plain.ID)
	if plain.B != defaultB || plain.SF != defaultSF || plain.RefName != "testref" {
		t.Fatalf("defaults: %+v", plain)
	}

	t.Run("fields after files", func(t *testing.T) {
		j := accepted(t, "", reads, ref, field("b", "12"), field("sf", "40"), field("backend", "cpu"))
		if j.B != 12 || j.SF != 40 || j.Backend != "cpu" {
			t.Errorf("b=%d sf=%d backend=%s, want 12 40 cpu", j.B, j.SF, j.Backend)
		}
		if got := fetchResults(t, ts, j.ID); !bytes.Equal(got, plainRows) {
			t.Error("rows differ from the fields-first submission")
		}
	})
	t.Run("parameters in the URL query", func(t *testing.T) {
		j := accepted(t, "?b=11&mode=mem", ref, reads, field("backend", "cpu"))
		if j.B != 11 || j.Mode != modeMem {
			t.Errorf("b=%d mode=%q, want 11 mem", j.B, j.Mode)
		}
		// FormValue read the query before the body.
		if j := accepted(t, "?b=11", field("b", "13"), ref, reads); j.B != 11 {
			t.Errorf("b=%d, want the query's 11 over the body's 13", j.B)
		}
	})
	t.Run("duplicate parts: first wins", func(t *testing.T) {
		j := accepted(t, "", field("b", "12"), field("b", "13"), ref, upload("reference", []byte("garbage")),
			reads, upload("reads", []byte("garbage")), field("backend", "cpu"))
		if j.B != 12 {
			t.Errorf("b=%d, want the first value 12", j.B)
		}
		if got := fetchResults(t, ts, j.ID); !bytes.Equal(got, plainRows) {
			t.Error("a later duplicate file part replaced the first")
		}
	})
	t.Run("gzip reference", func(t *testing.T) {
		j := accepted(t, "", field("backend", "cpu"), upload("reference", gz.Bytes()), reads)
		if got := fetchResults(t, ts, j.ID); !bytes.Equal(got, plainRows) {
			t.Error("rows of the gzipped reference differ")
		}
		if j.RefName != "testref" || j.RefLength != plain.RefLength {
			t.Errorf("ref %q/%d, want testref/%d", j.RefName, j.RefLength, plain.RefLength)
		}
	})
	t.Run("chunked transfer encoding", func(t *testing.T) {
		body, ctype := orderedUpload(t, field("backend", "cpu"), ref, reads)
		// A reader http.NewRequest cannot size: the client sends no
		// Content-Length.
		code, text := post(t, "", io.MultiReader(bytes.NewReader(body)), ctype)
		var j jobJSON
		if err := json.Unmarshal([]byte(text), &j); code != http.StatusOK || err != nil {
			t.Fatalf("chunked submit returned %d: %s", code, text)
		}
		waitForState(t, ts, j.ID, stateDone)
		if got := fetchResults(t, ts, j.ID); !bytes.Equal(got, plainRows) {
			t.Error("rows of the chunked submission differ")
		}
	})

	t.Run("missing parts", func(t *testing.T) {
		rejected(t, "missing reference upload", reads)
		rejected(t, "missing reads upload", ref)
		// A part named reference without a filename is a field, not a file.
		rejected(t, "missing reference upload", field("reference", string(refFasta)), reads)
		rejected(t, "parameter b: ", field("b", "abc"), ref, reads)
		rejected(t, "backend must be cpu or fpga", ref, reads, field("backend", "gpu"))
	})
	t.Run("not multipart", func(t *testing.T) {
		code, text := post(t, "", strings.NewReader("b=12"), "application/x-www-form-urlencoded")
		if code != http.StatusBadRequest || !strings.Contains(text, "bad upload: request Content-Type isn't multipart/form-data") {
			t.Fatalf("got %d %s", code, text)
		}
	})
	t.Run("body over MaxUploadBytes", func(t *testing.T) {
		big := bytes.Repeat([]byte("ACGT"), 1<<18) // 1 MiB of bases: over the cap with its framing
		body, ctype := orderedUpload(t, upload("reference", append([]byte(">big\n"), big...)), reads)
		code, text := post(t, "", bytes.NewReader(body), ctype)
		if code != http.StatusBadRequest || !strings.Contains(text, "bad upload: ") || !strings.Contains(text, "request body too large") {
			t.Fatalf("got %d %s", code, text)
		}
		noStaged(t)
	})
	t.Run("Content-Length far larger than the body", func(t *testing.T) {
		// The header claims a terabyte; the body is a few kilobytes cut off
		// mid-part. What must hold is that the header alone reserves nothing
		// and the part staged so far is removed.
		body, ctype := orderedUpload(t, ref, reads)
		body = body[:len(body)/2]
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fmt.Fprintf(conn, "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", ctype, int64(1)<<40)
		conn.Write(body)
		conn.(*net.TCPConn).CloseWrite()
		reply, _ := io.ReadAll(conn)
		runtime.ReadMemStats(&after)
		status, _, _ := strings.Cut(string(reply), "\r\n")
		if !strings.Contains(status, "400") || !strings.Contains(string(reply), "bad upload: ") {
			t.Fatalf("reply %q", reply)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("a lying Content-Length made the handler allocate %d bytes under a %d byte cap", grew, maxUpload)
		}
		noStaged(t)
	})
	s.Wait()
	if stateDir == "" {
		return
	}
	t.Run("journal failure", func(t *testing.T) {
		s.journal.close() // every append fails from here on
		body, ctype := orderedUpload(t, field("backend", "cpu"), ref, reads)
		code, text := post(t, "", bytes.NewReader(body), ctype)
		if code != http.StatusInternalServerError || !strings.Contains(text, "could not persist job") {
			t.Fatalf("got %d %s", code, text)
		}
		s.Wait()
		if left, err := os.ReadDir(filepath.Join(stateDir, payloadsDir)); err != nil || len(left) > 0 {
			t.Fatalf("payloads/ holds %d files after a failed accept (%v)", len(left), err)
		}
	})
}

// FuzzSubmitForm drives multipart bodies built from the fuzzer's plan through
// POST /jobs on a durable server: file parts and fields in any order,
// duplicated, garbage in place of a file, the body cut off anywhere. POST
// /jobs never panics; a 200 means both file parts arrived whole and the job
// reaches a terminal state; any other answer leaves payloads/ empty — and so
// does a finished job.
func FuzzSubmitForm(f *testing.F) {
	refFasta, readsFastq, _ := testData(f)
	f.Add([]byte{3, 0, 1}, "12", uint16(0))
	f.Add([]byte{1, 0, 2, 3}, "abc", uint16(0))
	f.Add([]byte{0, 0, 1, 6, 3}, ">x\nACGT", uint16(0))
	f.Add([]byte{5, 1, 7}, "15", uint16(0))
	f.Add([]byte{3, 0, 1, 4}, "1", uint16(700))
	f.Add([]byte{0}, "", uint16(0))

	stateDir := f.TempDir()
	s := openServer(f, Config{StateDir: stateDir, MaxUploadBytes: 64 << 10})
	defer s.Close()
	handler := s.Handler()
	payloads := filepath.Join(stateDir, payloadsDir)

	f.Fuzz(func(t *testing.T, plan []byte, value string, cut uint16) {
		var body bytes.Buffer
		mw := multipart.NewWriter(&body)
		// wholeRef / wholeReads: where the first reference and reads file
		// parts end in the body, 0 while absent.
		var wholeRef, wholeReads int
		for _, op := range plan {
			var err error
			var w io.Writer
			data := []byte(value)
			switch op % 8 {
			case 0:
				w, err = mw.CreateFormFile("reference", "ref.fa")
				data = refFasta
			case 1:
				w, err = mw.CreateFormFile("reads", "reads.fq")
				data = readsFastq
			case 2:
				w, err = mw.CreateFormField("b")
			case 3:
				w, err = mw.CreateFormField("backend")
				data = []byte("cpu")
			case 4:
				w, err = mw.CreateFormField("mismatches")
			case 5:
				w, err = mw.CreateFormField("reference")
			case 6:
				w, err = mw.CreateFormFile("reads", "garbage.fq")
			case 7:
				w, err = mw.CreateFormFile("other", "other.bin")
			}
			if err != nil {
				t.Fatal(err)
			}
			w.Write(data)
			switch {
			case op%8 == 0 && wholeRef == 0:
				wholeRef = body.Len()
			case (op%8 == 1 || op%8 == 6) && wholeReads == 0:
				wholeReads = body.Len()
			}
		}
		mw.Close()
		raw := body.Bytes()
		if cut > 0 && int(cut) < len(raw) {
			raw = raw[:cut]
		}

		req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(raw))
		req.Header.Set("Content-Type", mw.FormDataContentType())
		req.Header.Set("Accept", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			if wholeRef == 0 || wholeReads == 0 || wholeRef > len(raw) || wholeReads > len(raw) {
				t.Fatalf("accepted a body without both file parts: %s", rec.Body)
			}
			var j jobJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
				t.Fatal(err)
			}
			s.Wait()
			s.mu.Lock()
			state := s.jobs[j.ID].State
			s.mu.Unlock()
			if !state.terminal() {
				t.Fatalf("job %d is %s after Wait", j.ID, state)
			}
		}
		if left, err := os.ReadDir(payloads); err != nil || len(left) > 0 {
			t.Fatalf("status %d left %d files in payloads/ (%v): %s", rec.Code, len(left), err, rec.Body)
		}
	})
}
