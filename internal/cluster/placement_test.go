package cluster

import (
	"fmt"
	"math"
	"testing"

	"blockpar/internal/apps"
	"blockpar/internal/serve"
)

// workerDemand sums the demand_cycles_per_sec of every worker row in
// the dispatcher's /metrics stats.
func workerDemand(d *Dispatcher) float64 {
	total := 0.0
	for _, r := range d.BackendStats().(map[string]any)["workers"].([]WorkerStats) {
		total += r.DemandCyc
	}
	return total
}

// fleetAdmitted reports the fleet object's admitted_cycles_per_sec.
func fleetAdmitted(t *testing.T, d *Dispatcher) float64 {
	t.Helper()
	stats := d.BackendStats().(map[string]any)
	fleet, ok := stats["fleet"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics cluster stats carry no fleet object: %v", stats)
	}
	return fleet["admitted_cycles_per_sec"].(float64)
}

// sameCyc compares two cycles/sec totals up to float summation order.
func sameCyc(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// TestStaticFleetKeyedPlacement: a static address list is a fleet like
// any other — its members sit on the consistent-hash ring, PlacementFor
// lists all of them, and a keyed open lands on the ring's first choice
// instead of the least-loaded worker.
func TestStaticFleetKeyedPlacement(t *testing.T) {
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	d, _, stop := partitionedFleetN(t, 3, 1, fastOpts())
	defer stop()

	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("camera-%d", i)
		order := d.PlacementFor(key)
		if len(order) != 3 {
			t.Fatalf("key %q: PlacementFor = %v, want all 3 members", key, order)
		}
		h, err := d.Open(p, serve.OpenOptions{MaxInFlight: 1, Key: key})
		if err != nil {
			t.Fatalf("key %q: open: %v", key, err)
		}
		got := sessionWorker(t, h)
		if err := h.Close(); err != nil {
			t.Fatalf("key %q: close: %v", key, err)
		}
		if got != order[0] {
			t.Fatalf("key %q: keyed session placed on %s, ring says %s", key, got, order[0])
		}
	}
}

// TestRegisteredPartitionedKeyedSession: a self-registered fleet splits
// sessions like a static one. A keyed session of pipeline 5 over a
// 2-way split starts on the ring's first choice, streams byte-identical
// to the batch golden, and is priced once: the fleet admits the
// pipeline's demand and the worker rows sum to it.
func TestRegisteredPartitionedKeyedSession(t *testing.T) {
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 4
	want := batchFrames(t, app, frames)
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")

	opts := fastOpts()
	opts.Partitions = 2
	c := startRegistered(t, 1, 2, RegisteredClusterConfig{Dispatcher: opts})
	d := c.Dispatchers[0]

	const key = "split-key"
	h, err := d.Open(p, serve.OpenOptions{MaxInFlight: frames, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	ps := splitSession(t, h)
	ps.mu.Lock()
	first := ps.halves[0].w.member
	ps.mu.Unlock()
	if ring := d.PlacementFor(key)[0]; first != ring {
		t.Errorf("partition 0 placed on %s, ring says %s", first, ring)
	}
	if admitted := fleetAdmitted(t, d); !sameCyc(admitted, p.CyclesPerSec) {
		t.Errorf("fleet admitted %.6g cycles/s, want the pipeline's %.6g once", admitted, p.CyclesPerSec)
	}
	if workers := workerDemand(d); !sameCyc(workers, p.CyclesPerSec) {
		t.Errorf("worker rows sum to %.6g cycles/s, want %.6g", workers, p.CyclesPerSec)
	}
	if err := streamSession(h, frames, want); err != nil {
		t.Fatal(err)
	}
}
