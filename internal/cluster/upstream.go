package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
)

// Upstreams. Everything the gateway sends somewhere else — a forwarded
// submission, a proxied status poll or result stream, a heartbeat, a
// scatter-gather fetch — goes through one *http.Client to a base URL. The
// registered workers are reached over the network; the embedded fallback
// server is one more base URL, localURL, which the client's transport serves
// in process through the server's handler. Forward, proxy and scatter code
// therefore has one path, and a degraded gateway runs the same code as a
// healthy one.

// localURL addresses the embedded fallback server. Registration admits only
// http(s) URLs, so no worker can collide with it.
const localURL = "local://gateway"

// newUpstreamClient returns the gateway's client: requests to localURL are
// served by local in process, everything else goes over the network.
func newUpstreamClient(local http.Handler) *http.Client {
	return &http.Client{Transport: upstreamTransport{local: local, remote: http.DefaultTransport}}
}

type upstreamTransport struct {
	local  http.Handler
	remote http.RoundTripper
}

func (t upstreamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme+"://"+req.URL.Host != localURL {
		return t.remote.RoundTrip(req)
	}
	return serveLocal(t.local, req)
}

// serveLocal runs req through h on its own goroutine and answers with a
// response whose body is piped from the handler's writes, so a streamed
// answer (SSE, NDJSON) arrives as it is written, as it would over a socket.
// The handler's context ends when the caller's does or when the caller
// closes the body; a handler that panics before answering is a transport
// error.
func serveLocal(h http.Handler, req *http.Request) (*http.Response, error) {
	ctx, cancel := context.WithCancel(req.Context())
	in := req.Clone(ctx)
	in.URL = &url.URL{Path: req.URL.Path, RawPath: req.URL.RawPath, RawQuery: req.URL.RawQuery}
	in.RequestURI = in.URL.RequestURI()
	in.Host = req.URL.Host
	if in.Body == nil {
		in.Body = http.NoBody
	}
	pr, pw := io.Pipe()
	w := &localWriter{header: http.Header{}, body: pw, ready: make(chan struct{})}
	stop := context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })
	go func() {
		defer func() {
			stop()
			if p := recover(); p != nil {
				w.fail(fmt.Errorf("local fallback server: handler panic: %v", p))
				pw.CloseWithError(io.ErrUnexpectedEOF)
				return
			}
			w.WriteHeader(http.StatusOK) // a handler that never wrote answers 200
			pw.Close()
		}()
		h.ServeHTTP(w, in)
	}()
	select {
	case <-w.ready:
		if w.err != nil {
			cancel()
			return nil, w.err
		}
		w.resp.Request = req
		w.resp.Body = localBody{PipeReader: pr, cancel: cancel}
		return w.resp, nil
	case <-ctx.Done():
		cancel()
		return nil, ctx.Err()
	}
}

// localWriter is the handler's side of an in-process exchange: the status
// line and headers are published on the first WriteHeader, Write or Flush,
// and the body goes into the pipe the caller reads.
type localWriter struct {
	header http.Header
	body   *io.PipeWriter
	once   sync.Once
	ready  chan struct{} // closed once resp or err is set
	resp   *http.Response
	err    error
}

func (w *localWriter) Header() http.Header { return w.header }

func (w *localWriter) WriteHeader(code int) {
	w.once.Do(func() {
		w.resp = &http.Response{
			Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
			StatusCode:    code,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        w.header.Clone(),
			ContentLength: -1,
		}
		if n, err := strconv.ParseInt(w.header.Get("Content-Length"), 10, 64); err == nil {
			w.resp.ContentLength = n
		}
		close(w.ready)
	})
}

func (w *localWriter) Write(p []byte) (int, error) {
	if _, typed := w.header["Content-Type"]; !typed && len(p) > 0 {
		w.header.Set("Content-Type", http.DetectContentType(p)) // as net/http does
	}
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// Flush publishes the headers; the body needs no flushing, since every Write
// blocks until the caller has read it.
func (w *localWriter) Flush() { w.WriteHeader(http.StatusOK) }

// fail ends an exchange that never answered with err.
func (w *localWriter) fail(err error) {
	w.once.Do(func() {
		w.err = err
		close(w.ready)
	})
}

// localBody is the caller's side of the pipe; closing it tells the handler
// its client has gone, as a dropped connection would.
type localBody struct {
	*io.PipeReader
	cancel context.CancelFunc
}

func (b localBody) Close() error {
	b.cancel()
	return b.PipeReader.Close()
}
