package runtime

import (
	"testing"

	"blockpar/internal/conn"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
)

// stubEngine captures deliveries into a fixed array so the send path
// under test is the only code that could touch the heap.
type stubEngine struct {
	items [8]graph.Item
	n     int
}

func (s *stubEngine) start() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
func (s *stubEngine) deliver(e *graph.Edge, it graph.Item) {
	s.items[s.n] = it
	s.n++
}
func (s *stubEngine) recv(n *graph.Node) (inMsg, bool) { return inMsg{}, false }
func (s *stubEngine) stopNotify()                      {}

// TestBroadcastSendAllocFree is the zero-copy gate on broadcast
// fan-out: delivering one data item to every consumer of a declared
// broadcast connection must add pool references, not copies — zero
// heap allocations per send, and every consumer must observe the same
// backing storage.
func TestBroadcastSendAllocFree(t *testing.T) {
	g := graph.New("bcast-alloc")
	in := g.AddInput("Input", geom.Sz(8, 4), geom.Sz(1, 1), geom.FInt(10))
	tos := make([]*graph.Port, 3)
	for b := 0; b < 3; b++ {
		gain := g.Add(kernel.Gain("Gain"+string(rune('A'+b)), float64(b+1)))
		g.Connect(in, "out", gain, "in")
		tos[b] = gain.Input("in")
		out := g.AddOutput("out"+string(rune('A'+b)), geom.Sz(1, 1))
		g.Connect(gain, "out", out, "in")
	}
	g.AddConn("bcast", conn.Broadcast, in.Output("out"), tos)

	ex, err := newExecutor(g, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := &stubEngine{}
	ex.eng = eng
	port := in.Output("out")

	fire := func() {
		w := frame.PooledScalar(42)
		ex.send(port, graph.DataItem(w))
		if eng.n != 3 {
			t.Fatalf("delivered %d items, want 3", eng.n)
		}
		base := &eng.items[0].Win.Pix[0]
		for i := 0; i < eng.n; i++ {
			if &eng.items[i].Win.Pix[0] != base {
				t.Fatalf("consumer %d received a copy, not a shared reference", i)
			}
			eng.items[i].Win.Release()
		}
		eng.n = 0
	}
	fire() // warm-up: populate the pool bucket
	if avg := testing.AllocsPerRun(100, fire); avg != 0 {
		t.Errorf("broadcast send: %.1f allocs per fan-out, want 0", avg)
	}
}
