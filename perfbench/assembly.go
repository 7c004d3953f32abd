package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"blockpar/internal/cluster"
	"blockpar/internal/machine"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
)

// assembly is the system under test, built in one process through the
// public constructors: a serve.Server over a serve.Registry behind a
// loopback HTTP listener, with the workload's backend, plus the load
// generator's two HTTP clients (one feeder and one collector
// connection) and one open session.
type assembly struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan struct{}
	stop      func()
	base      string // session URL prefix: http://addr/sessions/<id>
	feeder    *http.Client
	collector *http.Client
	// setup is the time from the start of assemble until the session
	// was open and ready: compiles on the frontend and the workers,
	// fleet start-up and session open.
	setup time.Duration
}

// newWorker builds one loopback worker with an empty registry, so it
// compiles the pipeline on demand like a freshly started bpworker.
func newWorker(i int) *cluster.Worker {
	return cluster.NewWorker(serve.NewRegistry(machine.Embedded()),
		cluster.WorkerOptions{Name: fmt.Sprintf("w%d", i)})
}

// assemble builds the system for w and opens one session bounded at
// maxInFlight frames. A non-nil tracer wraps the backend, the
// dispatcher's worker connections and the client connections in
// benchmark-side probes; nothing inside the program changes.
func assemble(w workload, maxInFlight int, tr *tracer) (*assembly, error) {
	start := time.Now()
	a := &assembly{stop: func() {}}
	ok := false
	defer func() {
		if !ok {
			a.close()
		}
	}()
	reg := serve.NewRegistry(machine.Embedded())
	if err := reg.AddSuite(w.app); err != nil {
		return nil, err
	}

	var dopts cluster.DispatcherOptions
	if tr != nil {
		dopts.Dial = tr.wire.dial
	}
	var backend serve.Backend
	switch w.backend {
	case local:
		if tr != nil {
			backend = localBackend{}
		}
	case whole:
		d, stop, err := cluster.Loopback(newWorker(0), dopts)
		if err != nil {
			return nil, fmt.Errorf("loopback cluster: %w", err)
		}
		backend, a.stop = d, stop
	case partitioned:
		dopts.Partitions = 2
		d, _, stop, err := cluster.LoopbackFleet(2, dopts, newWorker)
		if err != nil {
			return nil, fmt.Errorf("loopback fleet: %w", err)
		}
		backend, a.stop = d, stop
	}
	if tr != nil {
		backend = &tracedBackend{inner: backend, tr: tr}
	}
	a.srv = serve.NewServer(reg, serve.Options{Backend: backend, MaxInFlight: maxInFlight})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a.hs = &http.Server{Handler: a.srv.Handler()}
	a.served = make(chan struct{})
	go func() {
		defer close(a.served)
		a.hs.Serve(ln)
	}()
	var counter *byteCounter
	if tr != nil {
		counter = &tr.http
	}
	a.feeder, a.collector = newClient(counter), newClient(counter)

	req, _ := json.Marshal(map[string]any{"pipeline": w.app, "maxInFlight": maxInFlight})
	var buf bytes.Buffer
	url := "http://" + ln.Addr().String() + "/sessions"
	code, err := post(a.feeder, url, req, &buf)
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	if code != http.StatusCreated {
		return nil, fmt.Errorf("open session: HTTP %d: %s", code, bytes.TrimSpace(buf.Bytes()))
	}
	var opened struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(buf.Bytes(), &opened); err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	a.base = url + "/" + opened.Session
	a.setup = time.Since(start)
	ok = true
	return a, nil
}

// close drains the session and tears everything down, waiting for the
// HTTP server goroutine and the backend to stop.
func (a *assembly) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if a.srv != nil {
		a.srv.Shutdown(ctx)
	}
	if a.hs != nil {
		a.hs.Shutdown(ctx)
		<-a.served
	}
	for _, c := range []*http.Client{a.feeder, a.collector} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	a.stop()
}

// localBackend is the server's default in-process backend, rebuilt
// from public calls so the traced run can wrap it.
type localBackend struct{}

func (localBackend) Open(p *serve.Pipeline, opts serve.OpenOptions) (serve.SessionHandle, error) {
	return p.NewSession(runtime.SessionOptions{MaxInFlight: opts.MaxInFlight})
}

// newClient returns an HTTP client that keeps exactly one connection
// to the server. A non-nil counter tallies the bytes it moves.
func newClient(counter *byteCounter) *http.Client {
	d := &net.Dialer{Timeout: 5 * time.Second}
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil || counter == nil {
				return c, err
			}
			counter.dials.Add(1)
			return &countedConn{Conn: c, n: counter}, nil
		},
	}
	return &http.Client{Transport: t, Timeout: 30 * time.Second}
}

// post sends body (none when nil) and reads the whole reply into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	var r io.Reader = http.NoBody
	if body != nil {
		r = bytes.NewReader(body)
	}
	resp, err := c.Post(url, "application/json", r)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// frameField parses the leading "frame" number of a feed or collect
// reply ({"frame":N,...}) without decoding the rest.
func frameField(b []byte) (int64, error) {
	const key = `{"frame":`
	if !bytes.HasPrefix(b, []byte(key)) {
		return 0, errors.New("reply does not start with a frame field")
	}
	var n int64
	i := len(key)
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int64(b[i]-'0')
	}
	if i == len(key) {
		return 0, errors.New("reply has an empty frame field")
	}
	return n, nil
}

// outputsField returns the raw bytes of a collect reply's "outputs"
// value: the reply is {"frame":…,"latency_ms":…,"outputs":{…}}\n with
// outputs last, as the server's sorted-key encoder writes it.
func outputsField(b []byte) ([]byte, error) {
	const key = `"outputs":`
	i := bytes.Index(b, []byte(key))
	end := len(bytes.TrimRight(b, "\n"))
	if i < 0 || end < i+len(key)+1 || b[end-1] != '}' {
		return nil, errors.New("reply has no outputs field")
	}
	return b[i+len(key) : end-1], nil
}
