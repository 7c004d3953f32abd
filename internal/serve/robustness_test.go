package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/machine"
	"blockpar/internal/runtime"
)

// sheddingBackend refuses every placement with the typed capacity
// error, standing in for a cluster with no placeable worker.
type sheddingBackend struct {
	readiness Readiness
}

func (b *sheddingBackend) Open(p *Pipeline, opts OpenOptions) (SessionHandle, error) {
	return nil, fmt.Errorf("%w: no healthy cluster worker", ErrUnavailable)
}

func (b *sheddingBackend) Readiness() Readiness { return b.readiness }

// degradedBackend places sessions normally but reports reduced
// capacity, like a cluster with some workers down.
type degradedBackend struct {
	localBackend
}

func (b *degradedBackend) Readiness() Readiness {
	return Readiness{Status: "degraded", Detail: "1/2 cluster workers placeable"}
}

// TestServeRetryAfterOnShed covers the 503 shed path end to end: a
// backend without capacity turns session opens into 503 with a
// Retry-After header (the 429 twin lives in TestServeBackpressure429),
// the shed counter moves, and readiness reports unavailable.
func TestServeRetryAfterOnShed(t *testing.T) {
	reg := NewRegistry(machine.Embedded())
	if err := reg.AddSuite("5"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{
		Backend: &sheddingBackend{readiness: Readiness{Status: "unavailable", Detail: "0/2 cluster workers placeable"}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, hdr, reply := doJSON(t, ts, "POST", "/sessions", map[string]any{"pipeline": "5"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("open with no capacity: got %d, want 503 (%s)", code, reply["error"])
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 shed reply is missing Retry-After")
	}

	code, _, m := doJSON(t, ts, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: got %d", code)
	}
	var shed int64
	if err := json.Unmarshal(m["shed_503"], &shed); err != nil {
		t.Fatal(err)
	}
	if shed < 1 {
		t.Errorf("metrics shed_503 = %d, want >= 1", shed)
	}

	code, _, rd := doJSON(t, ts, "GET", "/healthz/ready", nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("readiness with no capacity: got %d, want 503", code)
	}
	var status string
	if err := json.Unmarshal(rd["status"], &status); err != nil {
		t.Fatal(err)
	}
	if status != "unavailable" {
		t.Errorf("readiness status %q, want unavailable", status)
	}
}

// stuckBackend hands out sessions that accept frames but block their
// Close until released — a worker that will not finish draining.
type stuckBackend struct {
	release chan struct{}
}

func (b *stuckBackend) Open(p *Pipeline, opts OpenOptions) (SessionHandle, error) {
	return &stuckSession{release: b.release}, nil
}

type stuckSession struct {
	fed     int64
	release chan struct{}
}

func (s *stuckSession) TryFeed(map[string]frame.Window) (int64, error) {
	s.fed++
	return s.fed - 1, nil
}

func (s *stuckSession) Collect(timeout time.Duration) (*runtime.StreamResult, error) {
	return nil, fmt.Errorf("collect timed out after %v", timeout)
}

func (s *stuckSession) Fed() int64       { return s.fed }
func (s *stuckSession) Completed() int64 { return 0 }
func (s *stuckSession) InFlight() int64  { return s.fed }
func (s *stuckSession) Close() error     { <-s.release; return nil }

// TestServeDrainTimeoutAbandons pins the drain-timeout contract the
// -drain-timeout flag relies on: when sessions cannot finish inside
// the budget, Shutdown returns an error naming the abandoned work (so
// bpserve exits nonzero) instead of pretending the drain was clean.
func TestServeDrainTimeoutAbandons(t *testing.T) {
	reg := NewRegistry(machine.Embedded())
	if err := reg.AddSuite("5"); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	srv := NewServer(reg, Options{Backend: &stuckBackend{release: release}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := openSession(t, ts, "5", 4)
	for i := 0; i < 2; i++ {
		if code, _, reply := doJSON(t, ts, "POST", "/sessions/"+id+"/frames", nil); code != http.StatusAccepted {
			t.Fatalf("feed %d: got %d (%s)", i, code, reply["error"])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("drain past its budget reported a clean shutdown")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain-timeout error %v, want context.DeadlineExceeded in its chain", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "abandoned") || !strings.Contains(msg, "2 in-flight frames") {
		t.Errorf("drain-timeout error %q does not name the abandoned work", msg)
	}
}

// TestServeHealthzSplit pins the liveness/readiness contract: liveness
// stays 200 through degradation and draining (a draining server is
// alive), readiness answers 200 for ok and degraded but 503 once the
// server drains.
func TestServeHealthzSplit(t *testing.T) {
	reg := NewRegistry(machine.Embedded())
	if err := reg.AddSuite("5"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{Backend: &degradedBackend{}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _, _ := doJSON(t, ts, "GET", "/healthz/live", nil); code != http.StatusOK {
		t.Errorf("liveness: got %d, want 200", code)
	}
	code, _, rd := doJSON(t, ts, "GET", "/healthz/ready", nil)
	if code != http.StatusOK {
		t.Errorf("degraded readiness: got %d, want 200 (load balancers must keep routing)", code)
	}
	var status, detail string
	json.Unmarshal(rd["status"], &status)
	json.Unmarshal(rd["detail"], &detail)
	if status != "degraded" || detail == "" {
		t.Errorf("degraded readiness reported status=%q detail=%q", status, detail)
	}

	// Sessions still place while degraded.
	id := openSession(t, ts, "5", 2)
	if code, _, _ := doJSON(t, ts, "DELETE", "/sessions/"+id, nil); code != http.StatusOK {
		t.Errorf("close session: got %d, want 200", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _, _ := doJSON(t, ts, "GET", "/healthz/live", nil); code != http.StatusOK {
		t.Errorf("liveness while draining: got %d, want 200", code)
	}
	code, _, rd = doJSON(t, ts, "GET", "/healthz/ready", nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("readiness while draining: got %d, want 503", code)
	}
	json.Unmarshal(rd["status"], &status)
	if status != "draining" {
		t.Errorf("draining readiness status %q, want draining", status)
	}
}

// drainableBackend records DrainWorker calls, standing in for the
// cluster dispatcher behind the /drain-worker admin endpoint.
type drainableBackend struct {
	localBackend
	drained []string
}

func (b *drainableBackend) DrainWorker(name string) error {
	if strings.HasPrefix(name, "unknown") {
		return fmt.Errorf("cluster: unknown worker %q", name)
	}
	b.drained = append(b.drained, name)
	return nil
}

// TestServeDrainWorkerEndpoint covers the admin drain path: a
// drain-capable backend quiesces the named worker (200), unknown
// workers 404, a missing parameter 400s, and a backend without
// migration support answers 501.
func TestServeDrainWorkerEndpoint(t *testing.T) {
	reg := NewRegistry(machine.Embedded())
	if err := reg.AddSuite("5"); err != nil {
		t.Fatal(err)
	}
	b := &drainableBackend{}
	srv := NewServer(reg, Options{Backend: b})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _, reply := doJSON(t, ts, "POST", "/drain-worker?worker=10.0.0.7:9090", nil)
	if code != http.StatusOK {
		t.Fatalf("drain known worker: got %d (%s)", code, reply["error"])
	}
	var name string
	if err := json.Unmarshal(reply["draining"], &name); err != nil || name != "10.0.0.7:9090" {
		t.Fatalf("drain reply %v, want draining=10.0.0.7:9090", reply)
	}
	if len(b.drained) != 1 || b.drained[0] != "10.0.0.7:9090" {
		t.Fatalf("backend saw drains %v, want exactly the named worker", b.drained)
	}

	if code, _, _ := doJSON(t, ts, "POST", "/drain-worker?worker=unknown:1", nil); code != http.StatusNotFound {
		t.Errorf("drain unknown worker: got %d, want 404", code)
	}
	if code, _, _ := doJSON(t, ts, "POST", "/drain-worker", nil); code != http.StatusBadRequest {
		t.Errorf("drain without worker parameter: got %d, want 400", code)
	}

	local := NewServer(reg, Options{})
	lts := httptest.NewServer(local.Handler())
	defer lts.Close()
	if code, _, _ := doJSON(t, lts, "POST", "/drain-worker?worker=x", nil); code != http.StatusNotImplemented {
		t.Errorf("drain on a local backend: got %d, want 501", code)
	}
}

// timedOutKernel fails every firing with an error whose text happens to
// say "timed out", standing in for a kernel reporting its own deadline.
type timedOutKernel struct{}

func (timedOutKernel) Clone() graph.Behavior { return timedOutKernel{} }
func (timedOutKernel) Invoke(string, graph.ExecContext) error {
	return errors.New("sensor read timed out")
}

// TestServeSessionFailureIsNot504 pins the collect status mapping to
// the typed timeout: a session that failed is a 500, whatever its
// error text says; only an expired collect deadline is a 504.
func TestServeSessionFailureIsNot504(t *testing.T) {
	g := graph.New("timeout-text")
	in := g.AddInput("Input", geom.Sz(4, 2), geom.Sz(1, 1), geom.FInt(50))
	k := graph.NewNode("Sensor", graph.KindKernel)
	k.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	k.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	k.RegisterMethod("read", 1, 0)
	k.RegisterMethodInput("read", "in")
	k.RegisterMethodOutput("read", "out")
	k.Behavior = timedOutKernel{}
	g.Add(k)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", k, "in")
	g.Connect(k, "out", out, "in")

	reg := NewRegistry(machine.Embedded())
	if _, err := reg.AddApp("sensor", "test", &apps.App{Name: "sensor", Graph: g}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	id := openSession(t, ts, "sensor", 1)
	code, _, reply := doJSON(t, ts, "POST", "/sessions/"+id+"/process?timeout=10s", nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("failed session: got %d (%s), want 500", code, reply["error"])
	}
	if !strings.Contains(string(reply["error"]), "timed out") {
		t.Fatalf("error %s does not carry the kernel's message", reply["error"])
	}
}
