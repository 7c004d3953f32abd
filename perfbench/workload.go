package main

import (
	"fmt"
	"sort"
)

// backendKind says where a workload's session executes.
type backendKind string

const (
	// local runs the session in the HTTP server's process on the
	// in-process runtime backend.
	local backendKind = "local"
	// whole places the session on one loopback cluster worker
	// (cluster.Loopback).
	whole backendKind = "cluster"
	// partitioned splits the session across two loopback workers
	// (cluster.LoopbackFleet with Partitions: 2); cut edges are relayed
	// through the dispatcher.
	partitioned backendKind = "partitioned"
)

// workload is one traffic mix: an application, where it runs, how fast
// the paced phase feeds it, and whether the client sends the input
// frames or leaves the server to generate them.
type workload struct {
	name    string
	app     string // suite ID (apps.ByID)
	backend backendKind
	// rate is the paced phase's open-loop frame rate in frames/s; zero
	// means pacedShare of the application's declared real-time rate.
	rate float64
	// explicit feeds carry an input frame made from the seed; otherwise
	// feed bodies are empty and the server generates each frame from
	// its sequence number.
	explicit bool
	// warm is how many frames the closed-loop warm-up feeds, so that
	// measurement starts in the long-stream steady state. A cluster
	// session logs its explicit inputs and cut-edge frames for failover
	// replay until the 32 MiB replay budget is spent, then stops; that
	// takes ~1,365 frames of Bayer input and ~2,300 frames of MC cut
	// edges.
	warm int
}

var workloads = map[string]workload{
	// Transport-dominated: ~10 KB of JSON in, ~78 KB out and ~112 KB on
	// the dispatcher↔worker wire per frame, with light kernel work.
	"bayer-cluster": {name: "bayer-cluster", app: "1", backend: whole, explicit: true, warm: 1600},
	// Engine-dominated: many tiny firings and split/join tokens, a
	// 190 B output and no wire.
	"histogram-local": {name: "histogram-local", app: "2", backend: local, warm: 200},
	// The partition relay and the generalized-connection FSMs. The
	// declared 1,667 fps is beyond a 2-vCPU box; 100 fps puts the same
	// CPU load on it (about half a core) as the other two workloads'
	// paced phases.
	"multicam-partitioned": {name: "multicam-partitioned", app: "MC", backend: partitioned, rate: 100, warm: 2600},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupWorkload(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	return w, nil
}
