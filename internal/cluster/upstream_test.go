package cluster

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// A request to localURL reaches the handler as an incoming request would
// (routing, path values, query, body, headers) and its answer comes back as a
// response (status, headers, length, body).
func TestLocalUpstreamRoundTrip(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /api/jobs/{id}/reads", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got := strings.Join([]string{r.PathValue("id"), r.URL.Path, r.URL.RawQuery, r.RequestURI,
			string(body), r.Header.Get("X-Test")}, "|")
		w.Header().Set("X-Echo", got)
		w.Header().Set("Content-Length", "2")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "ok")
	})
	mux.HandleFunc("GET /sniff", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<!doctype html><p>hi</p>")
	})
	client := newUpstreamClient(mux)

	req, _ := http.NewRequest(http.MethodPut, localURL+"/api/jobs/7/reads?offset=3", strings.NewReader("ACGT"))
	req.Header.Set("X-Test", "yes")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || string(body) != "ok" || resp.ContentLength != 2 {
		t.Fatalf("answer = %d %q (length %d), want 202 \"ok\" (length 2)", resp.StatusCode, body, resp.ContentLength)
	}
	if want := "7|/api/jobs/7/reads|offset=3|/api/jobs/7/reads?offset=3|ACGT|yes"; resp.Header.Get("X-Echo") != want {
		t.Fatalf("handler saw %q, want %q", resp.Header.Get("X-Echo"), want)
	}

	resp, err = client.Get(localURL + "/sniff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("untyped answer has Content-Type %q, want it sniffed as text/html", ct)
	}

	resp, err = client.Get(localURL + "/nowhere")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unrouted path answered %d, want 404", resp.StatusCode)
	}
}

// Only localURL is served in process; every other URL goes to the network
// transport untouched.
func TestUpstreamTransportDispatch(t *testing.T) {
	var remote []string
	tr := upstreamTransport{
		local: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "local") }),
		remote: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			remote = append(remote, r.URL.String())
			return nil, errors.New("offline")
		}),
	}
	client := &http.Client{Transport: tr}
	resp, err := client.Get(localURL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "local" {
		t.Fatalf("local answer %q", body)
	}
	for _, u := range []string{"http://127.0.0.1:1/api/stats", "http://gateway/api/stats", "local://elsewhere/api/stats"} {
		if _, err := client.Get(u); err == nil {
			t.Errorf("%s was answered in process", u)
		}
	}
	if len(remote) != 3 {
		t.Fatalf("network transport saw %v, want the three non-local URLs", remote)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// A streamed answer arrives as it is written, not when the handler returns,
// and closing the body ends the handler's context, as a client hanging up
// on a socket does.
func TestLocalUpstreamStreamsAndHangsUp(t *testing.T) {
	hungUp := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: result\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		close(hungUp)
	})
	resp, err := newUpstreamClient(h).Get(localURL + "/api/jobs/1/stream")
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || line != "event: result\n" {
		t.Fatalf("first line %q, %v", line, err)
	}
	resp.Body.Close()
	select {
	case <-hungUp:
	case <-time.After(5 * time.Second):
		t.Fatal("closing the body did not end the handler's context")
	}
}

// The caller's context bounds an exchange: a handler that never answers
// costs the caller its deadline and no more, and its own context ends too.
func TestLocalUpstreamHonorsCallerContext(t *testing.T) {
	released := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		close(released)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, localURL+"/api/stats", nil)
	start := time.Now()
	if _, err := newUpstreamClient(h).Do(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung handler: err = %v, want the deadline", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("hung handler held the caller %v", d)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler's context outlived the caller's")
	}
}

// A handler that panics is a failed exchange, never a crashed gateway: before
// answering it is a transport error, after it a truncated body.
func TestLocalUpstreamHandlerPanic(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/early", func(w http.ResponseWriter, r *http.Request) { panic("boom") })
	mux.HandleFunc("/late", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "partial")
		panic("boom")
	})
	client := newUpstreamClient(mux)
	if _, err := client.Get(localURL + "/early"); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic before answering: err = %v", err)
	}
	resp, err := client.Get(localURL + "/late")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "partial" || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("panic after answering: body %q, err %v; want the partial body and an unexpected EOF", body, err)
	}
}
