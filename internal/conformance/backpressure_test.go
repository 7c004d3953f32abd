package conformance

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"blockpar/internal/cluster"
	"blockpar/internal/machine"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
)

// TestBackpressureContract holds every backend to the in-process
// client contract: MaxInFlight frames fed and uncollected make the next
// feed ErrQueueFull, and once every result is collected the very next
// feed — no retry, no sleep — is accepted. Each round starts with that
// immediate feed, so a backend whose window reopens only after some
// message trailing the results fails here. That message usually wins
// the race, so the rounds repeat until losing it is near certain.
func TestBackpressureContract(t *testing.T) {
	const window, rounds = 4, 64
	suite := func() *serve.Registry {
		reg := serve.NewRegistry(machine.Embedded())
		if err := reg.AddSuite("5"); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	worker := func(i int) *cluster.Worker {
		return cluster.NewWorker(suite(), cluster.WorkerOptions{Name: fmt.Sprintf("bp-w%d", i)})
	}
	backends := []struct {
		name string
		open func(p *serve.Pipeline) (serve.SessionHandle, func(), error)
	}{
		{"inprocess", func(p *serve.Pipeline) (serve.SessionHandle, func(), error) {
			h, err := p.NewSession(runtime.SessionOptions{MaxInFlight: window})
			return h, func() {}, err
		}},
		{"cluster", func(p *serve.Pipeline) (serve.SessionHandle, func(), error) {
			d, stop, err := cluster.Loopback(worker(0), cluster.DispatcherOptions{})
			if err != nil {
				return nil, nil, err
			}
			h, err := d.Open(p, serve.OpenOptions{MaxInFlight: window})
			return h, stop, err
		}},
		{"partitioned", func(p *serve.Pipeline) (serve.SessionHandle, func(), error) {
			d, _, stop, err := cluster.LoopbackFleet(2, cluster.DispatcherOptions{Partitions: 2}, worker)
			if err != nil {
				return nil, nil, err
			}
			h, err := d.Open(p, serve.OpenOptions{MaxInFlight: window})
			return h, stop, err
		}},
		{"registered", func(p *serve.Pipeline) (serve.SessionHandle, func(), error) {
			c, err := cluster.StartRegisteredCluster(1, 2, cluster.RegisteredClusterConfig{MakeWorker: worker})
			if err != nil {
				return nil, nil, err
			}
			h, err := c.Dispatchers[0].Open(p, serve.OpenOptions{MaxInFlight: window, Key: "backpressure"})
			return h, c.Close, err
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			p, _ := suite().Get("5")
			h, stop, err := b.open(p)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer stop()
			defer h.Close()
			for r := 0; r < rounds; r++ {
				for f := 0; f < window; f++ {
					if _, err := h.TryFeed(nil); err != nil {
						t.Fatalf("round %d feed %d of %d: %v", r, f, window, err)
					}
				}
				if _, err := h.TryFeed(nil); !errors.Is(err, runtime.ErrQueueFull) {
					t.Fatalf("round %d: feed past MaxInFlight=%d got %v, want ErrQueueFull", r, window, err)
				}
				for f := 0; f < window; f++ {
					res, err := h.Collect(30 * time.Second)
					if err != nil {
						t.Fatalf("round %d collect %d: %v", r, f, err)
					}
					for _, ws := range res.Outputs {
						for _, w := range ws {
							w.Release()
						}
					}
				}
			}
			if err := h.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}
