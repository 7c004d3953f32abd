package placement

import (
	"errors"
	"strings"
	"testing"

	"blockpar/internal/analysis"
	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
)

func compiledImageApp(t *testing.T) (*graph.Graph, *analysis.Result) {
	t.Helper()
	app := apps.ImagePipeline("place-test", apps.ImageCfg{
		W: apps.SmallW, H: apps.SmallH,
		Rate: geom.F(apps.FastRate, int64(apps.SmallW*apps.SmallH)),
		Bins: 32,
	})
	c, err := core.Compile(app.Graph, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c.Graph, c.Analysis
}

// TestPlanSingleWorkerNoCuts: a one-target fleet must produce exactly
// one partition holding every node and zero cut edges — the plan the
// dispatcher opens for a session that runs whole.
func TestPlanSingleWorkerNoCuts(t *testing.T) {
	g, r := compiledImageApp(t)
	m := machine.Default()
	p, err := PlanGraph(g, r, m, EvenFleet(g, r, m, 1), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Partitions) != 1 || len(p.Cuts) != 0 {
		t.Fatalf("got %d partitions, %d cuts; want 1, 0", len(p.Partitions), len(p.Cuts))
	}
	if len(p.Partitions[0].Nodes) != len(g.Nodes()) {
		t.Fatalf("partition holds %d of %d nodes", len(p.Partitions[0].Nodes), len(g.Nodes()))
	}
	// The dispatcher opens this plan as is, so it must pass validation.
	if err := p.Validate(g, r); err != nil {
		t.Fatalf("one-partition plan fails validation: %v", err)
	}
}

// TestPlanMultiWorkerSound builds 2- and 3-worker plans for a real
// compiled app and checks the invariants the transport depends on:
// validation passes (coverage, typed cuts, acyclic quotient), every
// cut carries positive traffic and a positive credit window, and the
// same seed reproduces the same plan.
func TestPlanMultiWorkerSound(t *testing.T) {
	g, r := compiledImageApp(t)
	m := machine.Default()
	for _, workers := range []int{2, 3} {
		p, err := PlanGraph(g, r, m, EvenFleet(g, r, m, workers), 7)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if len(p.Partitions) < 2 {
			t.Fatalf("%d workers: plan collapsed to %d partition(s)", workers, len(p.Partitions))
		}
		if len(p.Cuts) == 0 {
			t.Fatalf("%d workers: multi-partition plan has no cut edges", workers)
		}
		for _, c := range p.Cuts {
			if c.WordsPerFrame <= 0 {
				t.Errorf("%d workers: cut %d carries %d words/frame", workers, c.ID, c.WordsPerFrame)
			}
			if c.Credit <= 0 {
				t.Errorf("%d workers: cut %d credit %d", workers, c.ID, c.Credit)
			}
		}
		q, err := PlanGraph(g, r, m, EvenFleet(g, r, m, workers), 7)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != q.String() {
			t.Errorf("%d workers: same seed produced different plans", workers)
		}
	}
}

// TestPlanInfeasibleTyped: an impossible fleet surfaces mapping's
// typed error through the placement wrapper.
func TestPlanInfeasibleTyped(t *testing.T) {
	g, r := compiledImageApp(t)
	m := machine.Default()
	ts := make([]mapping.Target, 3)
	for i := range ts {
		ts[i] = mapping.Target{Name: "tiny", CyclesPerSec: 1, MemWords: 1}
	}
	_, err := PlanGraph(g, r, m, ts, 42)
	if err == nil {
		t.Fatal("tiny fleet accepted")
	}
	if !errors.Is(err, mapping.ErrInfeasible) {
		t.Fatalf("error %v does not wrap ErrInfeasible", err)
	}
}

// TestValidateCatchesTampering corrupts sound plans in the ways the
// Delaval-style check exists to catch.
func TestValidateCatchesTampering(t *testing.T) {
	g, r := compiledImageApp(t)
	m := machine.Default()
	fresh := func() *Plan {
		p, err := PlanGraph(g, r, m, EvenFleet(g, r, m, 2), 7)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := fresh().Validate(g, r); err != nil {
		t.Fatalf("sound plan rejected: %v", err)
	}

	p := fresh()
	p.Partitions[0].Nodes = p.Partitions[0].Nodes[1:]
	if err := p.Validate(g, r); err == nil {
		t.Error("dropped node not caught")
	}

	p = fresh()
	p.Partitions[1].Nodes = append(p.Partitions[1].Nodes, p.Partitions[0].Nodes[0])
	if err := p.Validate(g, r); err == nil {
		t.Error("doubly-placed node not caught")
	}

	p = fresh()
	p.Cuts = p.Cuts[:len(p.Cuts)-1]
	if err := p.Validate(g, r); err == nil {
		t.Error("missing cut entry not caught")
	}

	p = fresh()
	p.Cuts[0].Credit = 0
	if err := p.Validate(g, r); err == nil {
		t.Error("zero credit window not caught")
	}

	p = fresh()
	p.Cuts[0].From, p.Cuts[0].To = p.Cuts[0].To, p.Cuts[0].From
	if err := p.Validate(g, r); err == nil {
		t.Error("reversed cut direction not caught")
	}

	p = fresh()
	p.Cuts = append(p.Cuts, CutEdge{ID: 99, From: 0, To: 1,
		FromNode: "ghost", FromPort: "out", ToNode: "ghost2", ToPort: "in", Credit: 1})
	if err := p.Validate(g, r); err == nil {
		t.Error("phantom cut edge not caught")
	}
}

// TestPlanStringRendersEverything pins the -plan output shape: every
// partition and cut appears with its target, demand, and credit.
func TestPlanStringRendersEverything(t *testing.T) {
	g, r := compiledImageApp(t)
	m := machine.Default()
	p, err := PlanGraph(g, r, m, EvenFleet(g, r, m, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for i := range p.Partitions {
		if !strings.Contains(s, p.Partitions[i].Target) {
			t.Errorf("rendering misses target %q", p.Partitions[i].Target)
		}
	}
	for _, c := range p.Cuts {
		if !strings.Contains(s, c.FromNode+"."+c.FromPort) {
			t.Errorf("rendering misses cut %d source %s.%s", c.ID, c.FromNode, c.FromPort)
		}
	}
	if !strings.Contains(s, "credit") {
		t.Error("rendering misses credit windows")
	}
}
