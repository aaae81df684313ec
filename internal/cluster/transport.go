package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// HandlerTransport is an http.RoundTripper that serves requests
// directly through an in-process http.Handler — no sockets, no
// serialization beyond the body bytes. It is the transport behind
// single-process clusters (tests, the benchmark's cluster_mixed,
// cmd/cluster's in-process mode); real deployments use *http.Transport
// instead.
//
// Closed transports refuse with a transport-level error, which is
// indistinguishable from a dead process to the router — the seam the
// failover tests and cmd/cluster's kill path use.
type HandlerTransport struct {
	h      http.Handler
	closed atomic.Bool
}

// NewHandlerTransport wraps a handler as a RoundTripper.
func NewHandlerTransport(h http.Handler) *HandlerTransport {
	return &HandlerTransport{h: h}
}

// Close makes every subsequent RoundTrip fail like a dead host.
func (t *HandlerTransport) Close() { t.closed.Store(true) }

// Reopen undoes Close — the revival seam.
func (t *HandlerTransport) Reopen() { t.closed.Store(false) }

// RoundTrip serves the request through the wrapped handler and returns
// the recorded response. Like *http.Transport, it honors the request
// context: when the handler outlives req.Context(), RoundTrip abandons
// it and returns ctx.Err() — otherwise a hung replica would stall
// health probes and forwards past their deadlines forever.
//
//lint:hot
func (t *HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("cluster: transport to %s closed (replica down)", req.URL.Host)
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
	served := make(chan struct{})
	go func() {
		defer close(served)
		t.h.ServeHTTP(rec, req)
	}()
	select {
	case <-served:
	case <-ctx.Done():
		// The handler goroutine may still be running; it writes only to
		// rec, whose mutex makes the abandonment safe.
		return nil, ctx.Err()
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return &http.Response{
		StatusCode: rec.code,
		Status:     fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		Proto:      req.Proto,
		ProtoMajor: req.ProtoMajor,
		ProtoMinor: req.ProtoMinor,
		Header:     rec.header.Clone(),
		Body:       io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		Request:    req,
	}, nil
}

// recordedResponse is a minimal in-memory http.ResponseWriter. The
// mutex exists because a handler may legally write from a goroutine it
// spawned while RoundTrip reads the result after ServeHTTP returns.
type recordedResponse struct {
	mu     sync.Mutex
	header http.Header
	body   bytes.Buffer
	code   int
	wrote  bool
}

func (r *recordedResponse) Header() http.Header { return r.header }

func (r *recordedResponse) WriteHeader(code int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrote {
		r.wrote = true
		r.code = code
	}
}

func (r *recordedResponse) Write(b []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrote = true
	return r.body.Write(b)
}
