package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: got %v, want NaN", got)
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	inf := math.Inf(1)
	// Two of ten frames failed: p50 is still a real latency, p90 is not.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, inf, inf}
	if got := percentile(append([]float64(nil), xs...), 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(append([]float64(nil), xs...), 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf", got)
	}
	if got := median(xs); got != 5 || !math.IsInf(xs[8], 1) || xs[0] != 1 {
		t.Errorf("median = %v and must leave its input unsorted-as-given", got)
	}
}

func TestCalmest(t *testing.T) {
	if got := calmest(make([]float64, 4), 2); fmt.Sprint(got) != "[0 1]" {
		t.Errorf("no steal: got %v, want the first two slices", got)
	}
	// Slices 1, 2 and 4 ran with the most steal.
	steal := []float64{0.01, 0.04, 0.30, 0.02, 0.25, 0.03}
	if got := calmest(steal, 3); fmt.Sprint(got) != "[0 3 5]" {
		t.Errorf("with steal: got %v, want [0 3 5]", got)
	}
	if got := calmest(steal, 9); len(got) != len(steal) {
		t.Errorf("k beyond the slices: got %v, want every slice", got)
	}
	if got := calmCount(steal); got != 2 {
		t.Errorf("calmCount = %d, want 2 (shares <= %v)", got, calmSteal)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	parent := span{start: at(0), end: at(100)}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"one child", []span{{start: at(10), end: at(40)}}, 70 * time.Millisecond},
		{"disjoint", []span{{start: at(10), end: at(20)}, {start: at(50), end: at(70)}}, 70 * time.Millisecond},
		{"overlap counts once", []span{{start: at(10), end: at(40)}, {start: at(30), end: at(60)}}, 50 * time.Millisecond},
		{"nested counts once", []span{{start: at(10), end: at(90)}, {start: at(20), end: at(30)}}, 20 * time.Millisecond},
		{"clipped to parent", []span{{start: at(-50), end: at(10)}, {start: at(95), end: at(200)}}, 85 * time.Millisecond},
		{"outside parent", []span{{start: at(200), end: at(300)}}, 100 * time.Millisecond},
		{"covers parent", []span{{start: at(-1), end: at(101)}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 130)
	for _, i := range []int{0, 1, 2, 129, 130, 1300} {
		want := start.Add(time.Duration(math.Round(float64(i) * 1e9 / 130)))
		if got := s.due(i); !got.Equal(want) {
			t.Errorf("due(%d) = %v, want %v", i, got.Sub(start), want.Sub(start))
		}
	}
	// Open loop: due times never drift, whatever the sends cost.
	if got := s.due(130).Sub(start); got != time.Second {
		t.Errorf("130 frames at 130 fps end at %v, want 1s", got)
	}
	if got := s.due(1300).Sub(start); got != 10*time.Second {
		t.Errorf("1300 frames at 130 fps end at %v, want 10s", got)
	}
}

func TestReplyFields(t *testing.T) {
	reply := []byte(`{"frame":42,"latency_ms":1.5,"outputs":{"R":[{"w":1,"h":1,"pix":[3]}]}}` + "\n")
	if n, err := frameField(reply); err != nil || n != 42 {
		t.Errorf("frameField = %d, %v; want 42", n, err)
	}
	outs, err := outputsField(reply)
	if err != nil || string(outs) != `{"R":[{"w":1,"h":1,"pix":[3]}]}` {
		t.Errorf("outputsField = %q, %v", outs, err)
	}
	for _, bad := range []string{``, `{"error":"x"}`, `{"frame":}`} {
		if _, err := frameField([]byte(bad)); err == nil {
			t.Errorf("frameField parsed %q", bad)
		}
	}
	for _, bad := range []string{``, `{"error":"x"}`, `{"frame":1,"latency_ms":2}`} {
		if _, err := outputsField([]byte(bad)); err == nil {
			t.Errorf("outputsField parsed %q", bad)
		}
	}
}

// fakeServer answers the session endpoints: feeds are accepted or
// refused by accept, and every collect returns the scalar pix for the
// next accepted frame.
type fakeServer struct {
	accept  func(n int64) bool
	pix     func(seq int64) float64
	feeds   atomic.Int64
	fed     atomic.Int64
	collect atomic.Int64
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/sessions/s1/frames":
		n := f.feeds.Add(1) - 1
		if !f.accept(n) {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"runtime: session frame queue full"}`)
			return
		}
		seq := f.fed.Add(1) - 1
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "{\"frame\":%d,\"inFlight\":1}\n", seq)
	case "/sessions/s1/collect":
		seq := f.collect.Add(1) - 1
		fmt.Fprintf(w, "{\"frame\":%d,\"latency_ms\":0.1,\"outputs\":{\"out\":[{\"w\":1,\"h\":1,\"pix\":[%g]}]}}\n", seq, f.pix(seq))
	default:
		http.NotFound(w, r)
	}
}

func scalarApp() *apps.App {
	return &apps.App{Golden: func(seq int64) map[string][]frame.Window {
		return map[string][]frame.Window{"out": {frame.Scalar(float64(seq))}}
	}}
}

func fakeLoadgen(t *testing.T, f *fakeServer) *loadgen {
	t.Helper()
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	a := &assembly{base: ts.URL + "/sessions/s1", feeder: newClient(nil), collector: newClient(nil)}
	return newLoadgen(a, nil, 4, maphash.MakeSeed())
}

func TestRefusedFeedIsAFailureNotARetry(t *testing.T) {
	f := &fakeServer{
		accept: func(n int64) bool { return n != 1 }, // refuse the second feed only
		pix:    func(seq int64) float64 { return float64(seq) },
	}
	lg := fakeLoadgen(t, f)
	due := time.Now()
	for i := 0; i < 3; i++ {
		lg.feed(paced, due)
	}
	lg.stop()
	if got := f.feeds.Load(); got != 3 {
		t.Fatalf("server saw %d feed requests, want 3: a refused frame must not be retried", got)
	}
	if got := f.collect.Load(); got != 2 {
		t.Fatalf("server saw %d collects, want 2 (one per accepted frame)", got)
	}
	bad, err := lg.verify(newReferences(scalarApp(), lg.hseed))
	if err != nil || bad != 0 {
		t.Fatalf("verify: %d mismatches, %v", bad, err)
	}
	attempted, failed := lg.counts()
	if attempted != 5 || failed != 1 {
		t.Errorf("counts = %d attempted, %d failed; want 5 (3 feeds + 2 collects), 1", attempted, failed)
	}
	lat := lg.latencies(paced, -1)
	if len(lat) != 3 || !math.IsInf(percentile(lat, 1), 1) {
		t.Errorf("latency sample %v must hold all 3 frames with the refused one as +Inf", lat)
	}
	if got := lg.goodFrames(paced, -1); got != 2 {
		t.Errorf("good frames = %d, want 2", got)
	}
}

func TestWrongOutputIsAFailure(t *testing.T) {
	f := &fakeServer{
		accept: func(int64) bool { return true },
		pix: func(seq int64) float64 {
			if seq == 2 {
				return 99
			}
			return float64(seq)
		},
	}
	lg := fakeLoadgen(t, f)
	for i := 0; i < 4; i++ {
		lg.feed(paced, time.Now())
	}
	lg.stop()
	bad, err := lg.verify(newReferences(scalarApp(), lg.hseed))
	if err != nil || bad != 1 {
		t.Fatalf("verify: %d mismatches, %v; want 1", bad, err)
	}
	if _, failed := lg.counts(); failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	if got := lg.goodFrames(paced, -1); got != 3 {
		t.Errorf("good frames = %d, want 3", got)
	}
}

// TestGoldenMatchesServer runs the real serving stack in-process and
// checks that the load generator's reference encoding of App.Golden is
// byte-identical to what the server sends, for generated and explicit
// inputs.
func TestGoldenMatchesServer(t *testing.T) {
	for _, name := range []string{"histogram-local", "bayer-cluster"} {
		t.Run(name, func(t *testing.T) {
			w, err := lookupWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			app, err := apps.ByID(w.app)
			if err != nil {
				t.Fatal(err)
			}
			var pool *inputPool
			if w.explicit {
				if pool, err = newInputPool(app, 7, 3); err != nil {
					t.Fatal(err)
				}
			}
			a, err := assemble(w, 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			lg := newLoadgen(a, pool, 8, maphash.MakeSeed())
			lg.pace(paced, 200, 5, 0)
			lg.stop()
			a.close()
			bad, err := lg.verify(newReferences(app, lg.hseed))
			if err != nil || bad != 0 {
				t.Fatalf("verify: %d mismatches, %v", bad, err)
			}
			if got := lg.goodFrames(paced, -1); got != 5 {
				t.Fatalf("good frames = %d, want 5; failures: %v", got, failureLog(lg))
			}
		})
	}
}
