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
// the same.
func TestSubmitMultipartEdgeCases(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(refFasta)
	zw.Close()

	s := NewWithConfig(Config{MaxUploadBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

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
		return waitForState(t, ts, j.ID, StateDone)
	}
	rejected := func(t *testing.T, wantMsg string, parts ...formPart) {
		t.Helper()
		body, ctype := orderedUpload(t, parts...)
		code, text := post(t, "", bytes.NewReader(body), ctype)
		if code != http.StatusBadRequest || !strings.Contains(text, wantMsg) {
			t.Fatalf("submit returned %d %s, want 400 with %q", code, text, wantMsg)
		}
	}
	ref, reads := upload("reference", refFasta), upload("reads", readsFastq)

	plain := accepted(t, "", field("backend", "cpu"), ref, reads)
	plainRows := fetchResults(t, ts, plain.ID)
	if plain.B != DefaultB || plain.SF != DefaultSF || plain.RefName != "testref" {
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
		if j.B != 11 || j.Mode != ModeMem {
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
		// Content-Length, the handler has nothing to size buffers from.
		code, text := post(t, "", io.MultiReader(bytes.NewReader(body)), ctype)
		var j jobJSON
		if err := json.Unmarshal([]byte(text), &j); code != http.StatusOK || err != nil {
			t.Fatalf("chunked submit returned %d: %s", code, text)
		}
		waitForState(t, ts, j.ID, StateDone)
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
	})
	t.Run("Content-Length far larger than the body", func(t *testing.T) {
		// The header claims a terabyte; the body is a few kilobytes cut off
		// mid-part. Buffers are sized from the header, so what must hold is
		// that the header alone never reserves more than the upload cap.
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
			t.Errorf("a lying Content-Length made the handler allocate %d bytes under a %d byte cap", grew, s.MaxUploadBytes)
		}
	})
	s.Wait()
}
