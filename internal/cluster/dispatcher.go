package cluster

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/placement"
	"blockpar/internal/registry"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// DispatcherOptions tunes the frontend side of the cluster. The zero
// value is production-ready; tests shrink the intervals.
type DispatcherOptions struct {
	// Dial opens a connection to a worker address (default net.Dial
	// over TCP with a 5s timeout).
	Dial func(addr string) (net.Conn, error)
	// PingInterval paces worker health probes (default 2s); a worker
	// that misses pongs for PingTimeout (default 3×PingInterval) is
	// declared dead and reconnected.
	PingInterval time.Duration
	PingTimeout  time.Duration
	// ReconnectMin/Max bound the exponential backoff between dial
	// attempts (defaults 100ms and 5s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// BreakerFailures consecutive connection-level failures open a
	// worker's circuit breaker (default 3); after BreakerCooldown
	// (default 5s) it goes half-open and one placement may probe it.
	BreakerFailures int
	BreakerCooldown time.Duration
	// OpenTimeout bounds pipeline-ensure and session-open round trips,
	// which may include a worker-side compile (default 30s).
	OpenTimeout time.Duration
	// CloseTimeout bounds the wait for a worker to drain and
	// acknowledge a session close (default 10s).
	CloseTimeout time.Duration
	// FailoverTimeout bounds one partition's recovery after its worker
	// dies, drains, or stalls: finding a surviving worker, reopening,
	// and replaying the partition's inputs (default 30s). A session
	// deadline shortens it.
	FailoverTimeout time.Duration
	// ReplayBudget caps the bytes a session retains for failover replay
	// (default 32 MiB): explicit input windows plus the items crossing
	// its cut edges. Generated inputs cost nothing — the worker
	// regenerates them from the frame index. A session past its budget
	// stops being recoverable: losing a worker becomes a typed
	// serve.ErrSessionLost instead of a replay. Negative disables
	// recovery entirely.
	ReplayBudget int64
	// StallTimeout bounds how long a session with frames in flight may
	// go without any progress (results, credits, or cut-edge items
	// arriving) before the dispatcher declares the partition that has
	// been silent longest wedged and recovers it on a worker (default
	// 30s; negative disables). This is the recovery for messages lost
	// on an otherwise-healthy connection — a dropped frame, a silently
	// stuck worker — which connection-level health checks can never see.
	StallTimeout time.Duration
	// Partitions is the number of workers one session's compiled graph
	// may be split across. Every session runs as an internal/placement
	// plan with one partition per worker and the cut edges relayed
	// through the dispatcher (see docs/cluster.md "Placement"); 0 or 1
	// means the one-partition plan, the whole graph on one worker. A
	// fleet with fewer placeable workers, or a pipeline whose placement
	// collapses, gets a shallower split. Recovery is per partition:
	// within ReplayBudget, losing a worker re-homes just the partitions
	// it hosted and replays their inputs, invisibly to the client. Past
	// the budget — or on a second failure mid-recovery — the session
	// ends with a typed serve.ErrSessionLost.
	Partitions int
}

func (o *DispatcherOptions) defaults() {
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if o.PingInterval <= 0 {
		o.PingInterval = 2 * time.Second
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 3 * o.PingInterval
	}
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 100 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 5 * time.Second
	}
	if o.BreakerFailures <= 0 {
		o.BreakerFailures = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.OpenTimeout <= 0 {
		o.OpenTimeout = 30 * time.Second
	}
	if o.CloseTimeout <= 0 {
		o.CloseTimeout = 10 * time.Second
	}
	if o.FailoverTimeout <= 0 {
		o.FailoverTimeout = 30 * time.Second
	}
	if o.ReplayBudget == 0 {
		o.ReplayBudget = 32 << 20
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 30 * time.Second
	}
}

// Dispatcher places sessions on cluster workers and proxies their
// frames. It implements serve.Backend, so bpserve swaps it in for the
// in-process executor without the HTTP layer noticing.
type Dispatcher struct {
	opts    DispatcherOptions
	nextSID atomic.Uint64

	// Membership: a fleet of named members, each on the consistent-hash
	// ring and each declaring a capacity in cycles/sec (0 = unpriced).
	// A static address list fixes the fleet at construction; a
	// registry.Fleet changes it as events arrive, so every reader goes
	// through snapshot(). Placement and admission read only this, never
	// how a member joined.
	wmu     sync.RWMutex
	workers []*workerRef
	byName  map[string]*workerRef // member name → ref
	ring    *registry.Ring

	unsubscribe func() // stops following a registry.Fleet; nil for a static list

	// Admission accounting: cycles/sec admitted by this frontend,
	// compared against the fleet's declared capacity.
	admitMu      sync.Mutex
	admittedCyc  float64
	admitRejects atomic.Int64

	// plans caches one placement plan per (pipeline ID, partition count).
	planMu sync.Mutex
	plans  map[string]*placement.Plan

	// Recovery counters, surfaced by BackendStats under /metrics.
	partitionsFailedOver atomic.Int64
	sessionsMigrated     atomic.Int64
	framesReplayed       atomic.Int64
	shedTotal            atomic.Int64

	closeOnce sync.Once
	closed    chan struct{}
}

// NewDispatcher builds a fleet whose members never change: one
// unpriced member per worker address, named by the address. The
// connection managers connect in the background; use WaitReady to block
// until the cluster can place sessions.
func NewDispatcher(addrs []string, opts DispatcherOptions) *Dispatcher {
	d := newDispatcher(opts)
	for _, addr := range addrs {
		d.AddWorker(addr, addr, 0)
	}
	return d
}

func newDispatcher(opts DispatcherOptions) *Dispatcher {
	opts.defaults()
	return &Dispatcher{
		opts:   opts,
		byName: make(map[string]*workerRef),
		ring:   registry.NewRing(0),
		plans:  make(map[string]*placement.Plan),
		closed: make(chan struct{}),
	}
}

// NewRegisteredDispatcher builds a dispatcher whose membership follows
// a registry.Fleet: a worker registering adds a managed connection and
// a ring member, a deregistration or lease expiry removes both — and
// cancels the reconnect loop, so a drained worker is never pinged at a
// dead address. Members declare their capacity when they register;
// placement, admission, breakers, failover, and replay all work exactly
// as with a static list.
func NewRegisteredDispatcher(fleet *registry.Fleet, opts DispatcherOptions) *Dispatcher {
	d := newDispatcher(opts)
	ch, cancel := fleet.Subscribe()
	d.unsubscribe = cancel
	go func() {
		for ev := range ch {
			switch ev.Kind {
			case registry.EventJoin:
				d.AddWorker(ev.Member.Name, ev.Member.Addr, ev.Member.CyclesPerSec)
			case registry.EventLeave:
				d.RemoveWorker(ev.Member.Name)
			case registry.EventDrain:
				// The worker announced planned maintenance in a heartbeat:
				// stop placing here and migrate its sessions off before
				// its Goaway lands.
				d.DrainWorker(ev.Member.Name)
			}
		}
	}()
	return d
}

// snapshot returns the current worker set; safe to iterate without the
// membership lock.
func (d *Dispatcher) snapshot() []*workerRef {
	d.wmu.RLock()
	defer d.wmu.RUnlock()
	return append([]*workerRef(nil), d.workers...)
}

// AddWorker adds a member and starts its connection manager. Adding an
// existing member with an unchanged address refreshes nothing (the
// manager is already running); a changed address replaces the ref.
func (d *Dispatcher) AddWorker(member, addr string, capacityCyc float64) {
	d.wmu.Lock()
	if old, ok := d.byName[member]; ok {
		if old.addr == addr {
			old.mu.Lock()
			old.capacity = capacityCyc
			old.mu.Unlock()
			d.wmu.Unlock()
			return
		}
		d.removeLocked(old)
		old.halt()
	}
	w := &workerRef{d: d, addr: addr, member: member, capacity: capacityCyc, stop: make(chan struct{})}
	d.workers = append(d.workers, w)
	d.byName[member] = w
	d.ring.Add(member)
	d.wmu.Unlock()
	go w.manage()
}

// RemoveWorker drops a member from placement and cancels its reconnect
// loop. A live connection is not torn down: in-flight sessions drain
// through the worker's own Goaway path (or fail over when it dies),
// but once the connection ends the manager exits instead of redialing.
func (d *Dispatcher) RemoveWorker(member string) {
	d.wmu.Lock()
	w := d.byName[member]
	if w != nil {
		d.removeLocked(w)
	}
	d.wmu.Unlock()
	if w != nil {
		w.halt()
	}
}

// DrainWorker quiesces one worker from the frontend side: no further
// placements land on it and every resident session migrates to a
// survivor (falling back to a quiesce-and-close when it cannot). The
// worker process itself keeps running — this is the frontend half of a
// planned drain, reached from a registered member's draining heartbeat,
// the worker's own Goaway, or the /drain-worker admin endpoint. A static
// list member is named by its address.
func (d *Dispatcher) DrainWorker(member string) error {
	d.wmu.RLock()
	w := d.byName[member]
	d.wmu.RUnlock()
	if w == nil {
		return fmt.Errorf("cluster: unknown worker %q", member)
	}
	w.drain()
	return nil
}

// removeLocked unlinks w from the membership structures. Caller holds
// d.wmu.
func (d *Dispatcher) removeLocked(w *workerRef) {
	delete(d.byName, w.member)
	for i, x := range d.workers {
		if x == w {
			d.workers = append(d.workers[:i], d.workers[i+1:]...)
			break
		}
	}
	d.ring.Remove(w.member)
}

// PlaceableWorkers reports how many members can take a session right
// now.
func (d *Dispatcher) PlaceableWorkers() int {
	n := 0
	for _, w := range d.snapshot() {
		if w.placeable() {
			n++
		}
	}
	return n
}

// PlacementFor reports the ring's preference order for a session key
// over every member — every frontend sharing the fleet computes the
// same answer.
func (d *Dispatcher) PlacementFor(key string) []string {
	d.wmu.RLock()
	defer d.wmu.RUnlock()
	return d.ring.LookupN(key, d.ring.Len())
}

// WaitReady blocks until at least one worker is connected, or the
// timeout expires.
func (d *Dispatcher) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		for _, w := range d.snapshot() {
			if w.placeable() {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: no worker reachable within %v", timeout)
		}
		select {
		case <-d.closed:
			return errors.New("cluster: dispatcher closed")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Open implements serve.Backend: lower the session to a placement plan
// and open one partition per worker, in candidate order. With no
// placeable worker it sheds with serve.ErrUnavailable (HTTP 503).
func (d *Dispatcher) Open(p *serve.Pipeline, opts serve.OpenOptions) (serve.SessionHandle, error) {
	select {
	case <-d.closed:
		return nil, fmt.Errorf("%w: dispatcher closed", serve.ErrUnavailable)
	default:
	}

	// Admission control: the new session's projected demand — Σ over
	// its nodes of analysis cycles/sec — must fit in the fleet's
	// declared capacity alongside everything this frontend already
	// admitted. A fleet with no declared capacity (a static address
	// list) admits everything. A healthy-but-full fleet rejects with the
	// 429 retry contract, not a 503.
	if len(d.snapshot()) == 0 {
		// An empty fleet is unavailable, not full: the 503 retry
		// contract, matching Readiness, not the 429 one.
		return nil, fmt.Errorf("%w: the fleet has no workers", serve.ErrUnavailable)
	}
	admitted := p.CyclesPerSec
	capacity := d.fleetCapacity()
	d.admitMu.Lock()
	if capacity > 0 && admitted > 0 && d.admittedCyc+admitted > capacity {
		have := capacity - d.admittedCyc
		d.admitMu.Unlock()
		d.admitRejects.Add(1)
		return nil, fmt.Errorf("%w: pipeline %s needs %.3g cycles/s, fleet has %.3g of %.3g free",
			serve.ErrOverloaded, p.ID, admitted, have, capacity)
	}
	d.admittedCyc += admitted
	d.admitMu.Unlock()

	ps, err := d.openSession(p, opts)
	if err != nil {
		if admitted > 0 {
			d.releaseAdmission(admitted)
		}
		d.shedTotal.Add(1)
		return nil, fmt.Errorf("%w: %v", serve.ErrUnavailable, err)
	}
	// Hand the admission hold to the session so terminate — the single
	// termination funnel — returns it. If the session already ended (a
	// worker reported a failure in the gap), its terminate saw
	// admitted == 0, so the hold is still ours to release.
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		if admitted > 0 {
			d.releaseAdmission(admitted)
		}
	} else {
		ps.admitted = admitted
		ps.mu.Unlock()
	}
	return ps, nil
}

// candidates orders the placeable workers for one open, by one rule in
// every fleet. Keyed sessions walk the consistent-hash ring, so every
// frontend sharing the fleet agrees where a key lives. Keyless sessions
// sort with placesBefore.
func (d *Dispatcher) candidates(p *serve.Pipeline, opts serve.OpenOptions) []*workerRef {
	var members []*workerRef
	if opts.Key == "" {
		members = d.snapshot()
	} else {
		d.wmu.RLock()
		for _, name := range d.ring.LookupN(opts.Key, d.ring.Len()) {
			members = append(members, d.byName[name])
		}
		d.wmu.RUnlock()
	}
	var cands []candidate
	for _, w := range members {
		if w.placeable() {
			room, parts := w.load()
			cands = append(cands, candidate{w, room, parts})
		}
	}
	if opts.Key == "" {
		sort.SliceStable(cands, func(i, j int) bool {
			return cands[i].placesBefore(cands[j], p.CyclesPerSec)
		})
	}
	refs := make([]*workerRef, len(cands))
	for i, c := range cands {
		refs[i] = c.w
	}
	return refs
}

// candidate is one placeable worker's load, snapshotted once per open.
type candidate struct {
	w     *workerRef
	room  float64 // declared capacity left; +Inf for an unpriced member
	parts int     // open partitions
}

// placesBefore orders keyless candidates for a session demanding demand
// cycles/sec: members the session fits on first, the tightest fit among
// them (best fit, the paper's Section V greedy multiplexing lifted from
// PEs to workers), the most room when nothing fits, and then the fewest
// open partitions. An unpriced member fits everything with room to
// spare, so a fleet of them — every static address list — orders
// least-loaded; an unpriced session (demand 0) does too.
func (c candidate) placesBefore(o candidate, demand float64) bool {
	if demand > 0 && c.room != o.room {
		cf, of := c.room >= demand, o.room >= demand
		if cf != of {
			return cf
		}
		if cf {
			return c.room < o.room
		}
		return c.room > o.room
	}
	return c.parts < o.parts
}

// fleetCapacity sums the declared cycles/sec of every current member;
// unpriced members add nothing. Membership — not momentary
// connectivity — defines capacity: a worker mid-reconnect still holds
// its lease and its share.
func (d *Dispatcher) fleetCapacity() float64 {
	total := 0.0
	for _, w := range d.snapshot() {
		w.mu.Lock()
		total += w.capacity
		w.mu.Unlock()
	}
	return total
}

// releaseAdmission returns a session's admitted demand to the pool.
func (d *Dispatcher) releaseAdmission(cyc float64) {
	d.admitMu.Lock()
	d.admittedCyc -= cyc
	if d.admittedCyc < 0 {
		d.admittedCyc = 0
	}
	d.admitMu.Unlock()
}

// Readiness implements serve.ReadinessReporter: "ok" with every worker
// placeable, "degraded" while sessions still place but capacity is
// reduced (workers down, draining, or breaker-open), "unavailable"
// when nothing can place.
func (d *Dispatcher) Readiness() serve.Readiness {
	workers := d.snapshot()
	up := 0
	for _, w := range workers {
		if w.placeable() {
			up++
		}
	}
	total := len(workers)
	switch {
	case total == 0:
		return serve.Readiness{
			Status: "unavailable",
			Detail: "the fleet has no workers",
		}
	case up == 0:
		return serve.Readiness{
			Status: "unavailable",
			Detail: fmt.Sprintf("0/%d cluster workers placeable", total),
		}
	case up < total:
		return serve.Readiness{
			Status: "degraded",
			Detail: fmt.Sprintf("%d/%d cluster workers placeable", up, total),
		}
	}
	return serve.Readiness{Status: "ok"}
}

// Close tears down every worker connection; in-flight sessions fail.
func (d *Dispatcher) Close() error {
	d.closeOnce.Do(func() {
		close(d.closed)
		if d.unsubscribe != nil {
			d.unsubscribe()
		}
		for _, w := range d.snapshot() {
			w.halt()
			w.mu.Lock()
			c := w.conn
			w.mu.Unlock()
			if c != nil {
				c.Close()
			}
		}
	})
	return nil
}

// WorkerStats is one worker's row in /metrics.
type WorkerStats struct {
	Addr            string  `json:"addr"`
	Name            string  `json:"name,omitempty"`
	Member          string  `json:"member,omitempty"`
	State           string  `json:"state"`
	Breaker         string  `json:"breaker"`
	Draining        bool    `json:"draining,omitempty"`
	Sessions        int     `json:"sessions"`
	CapacityCyc     float64 `json:"capacity_cycles_per_sec,omitempty"`
	DemandCyc       float64 `json:"demand_cycles_per_sec,omitempty"`
	FramesRouted    int64   `json:"frames_routed"`
	ResultsReceived int64   `json:"results_received"`
	Reconnects      int64   `json:"reconnects"`
}

// SessionStats is one open session's row in /metrics: the workers
// hosting its partitions, how many partitions execute it, and the bytes
// its failover replay log retains.
type SessionStats struct {
	Pipeline    string   `json:"pipeline"`
	Workers     []string `json:"workers"`
	Partitions  int      `json:"partitions"`
	ReplayBytes int64    `json:"replay_bytes"`
}

// BackendStats implements serve.StatsReporter: the per-worker gauges
// surfaced under "cluster" in /metrics, plus one row per open session.
func (d *Dispatcher) BackendStats() any {
	workers := d.snapshot()
	rows := make([]WorkerStats, 0, len(workers))
	seen := make(map[uint64]bool)
	var sessions []SessionStats
	for _, w := range workers {
		rows = append(rows, w.stats())
		w.mu.Lock()
		halves := w.residentLocked()
		w.mu.Unlock()
		for _, h := range halves {
			row, key := h.ps.sessionRow()
			if !seen[key] {
				seen[key] = true
				sessions = append(sessions, row)
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Addr < rows[j].Addr })
	sort.Slice(sessions, func(i, j int) bool {
		if sessions[i].Pipeline != sessions[j].Pipeline {
			return sessions[i].Pipeline < sessions[j].Pipeline
		}
		return sessions[i].Partitions < sessions[j].Partitions
	})
	d.admitMu.Lock()
	admitted := d.admittedCyc
	d.admitMu.Unlock()
	return map[string]any{
		"workers":                rows,
		"sessions":               sessions,
		"partitions_failed_over": d.partitionsFailedOver.Load(),
		"sessions_migrated":      d.sessionsMigrated.Load(),
		"frames_replayed":        d.framesReplayed.Load(),
		"shed_total":             d.shedTotal.Load(),
		"fleet": map[string]any{
			"members":                 len(workers),
			"capacity_cycles_per_sec": d.fleetCapacity(),
			"admitted_cycles_per_sec": admitted,
			"admission_rejects":       d.admitRejects.Load(),
		},
	}
}

// workerRef is the dispatcher's view of one worker: a managed
// connection with reconnection, health pings, and a circuit breaker,
// plus the session partitions currently placed on it.
type workerRef struct {
	d      *Dispatcher
	addr   string
	member string // ring identity: the registration name, or a static list member's address

	// stop cancels the manage loop: closed when the member deregisters
	// (or the dispatcher closes it out of the fleet), so a removed
	// worker's backoff never pings its dead address again.
	stop     chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	capacity float64    // declared cycles/sec; 0 = unpriced
	conn     *wire.Conn // nil while disconnected
	epoch    uint64     // bumped per successful connect
	name     string     // from Welcome
	draining bool       // saw Goaway
	known    map[string]bool
	sessions map[uint64]*partitionHalf
	pending  map[uint64]chan *wire.SessionOpened
	ensure   map[string][]chan *wire.PipelineReady

	consecFails int
	openUntil   time.Time // breaker open until this instant
	lastPong    atomic.Int64

	framesRouted atomic.Int64
	resultsRecv  atomic.Int64
	reconnects   atomic.Int64
}

// halt cancels the manage loop. Idempotent; a live connection is left
// to finish on its own (sessions drain or fail over when it dies), but
// no redial ever follows.
func (w *workerRef) halt() {
	w.stopOnce.Do(func() { close(w.stop) })
}

// halted reports whether the member was removed.
func (w *workerRef) halted() bool {
	select {
	case <-w.stop:
		return true
	default:
		return false
	}
}

// manage owns the connection lifecycle: dial + handshake with
// exponential backoff, then read until the connection dies, failing
// that epoch's sessions and starting over. Deregistration (halt)
// cancels the loop: a removed worker's address is never redialed —
// previously a drained worker was pinged forever, holding its breaker
// half-open.
func (w *workerRef) manage() {
	backoff := w.d.opts.ReconnectMin
	connected := false
	for {
		select {
		case <-w.d.closed:
			return
		case <-w.stop:
			return
		default:
		}
		conn, welcome, err := w.dial()
		if err != nil {
			w.recordFailure()
			select {
			case <-w.d.closed:
				return
			case <-w.stop:
				return
			case <-time.After(backoff):
			}
			// Decorrelated jitter: frontends that lost the same worker at
			// the same instant spread their redials instead of thundering
			// back in lockstep.
			backoff = registry.JitterBackoff(backoff, w.d.opts.ReconnectMin, w.d.opts.ReconnectMax)
			continue
		}
		if connected {
			w.reconnects.Add(1)
		}
		connected = true
		backoff = w.d.opts.ReconnectMin
		w.attach(conn, welcome)

		pingStop := make(chan struct{})
		go w.pingLoop(conn, pingStop)
		err = w.readLoop(conn)
		close(pingStop)
		conn.Close()
		w.detach(conn, err)
		w.recordFailure()
	}
}

func (w *workerRef) dial() (*wire.Conn, *wire.Welcome, error) {
	nc, err := w.d.opts.Dial(w.addr)
	if err != nil {
		return nil, nil, err
	}
	conn := wire.NewConn(nc)
	// Bound the handshake: a Welcome lost in transit must surface as a
	// dial failure and a backoff retry, not a manager wedged forever on
	// the read.
	conn.SetReadDeadline(time.Now().Add(w.d.opts.OpenTimeout))
	welcome, err := conn.Handshake()
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	conn.SetReadDeadline(time.Time{})
	return conn, welcome, nil
}

func (w *workerRef) attach(conn *wire.Conn, welcome *wire.Welcome) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn = conn
	w.epoch++
	w.name = welcome.Worker
	w.draining = false
	w.known = make(map[string]bool, len(welcome.Pipelines))
	for _, id := range welcome.Pipelines {
		w.known[id] = true
	}
	w.sessions = make(map[uint64]*partitionHalf)
	w.pending = make(map[uint64]chan *wire.SessionOpened)
	w.ensure = make(map[string][]chan *wire.PipelineReady)
	// A successful handshake is the breaker's probe: it closes.
	w.consecFails = 0
	w.openUntil = time.Time{}
	w.lastPong.Store(time.Now().UnixNano())
}

// detach hands every partition placed over the dead connection to the
// recovery path (or fails its session, when it cannot be replayed). The cause
// names the worker, so a client whose session could not be recovered
// sees exactly why its stream died while unrelated sessions keep
// running.
func (w *workerRef) detach(conn *wire.Conn, cause error) {
	w.mu.Lock()
	if w.conn != conn {
		w.mu.Unlock()
		return
	}
	w.conn = nil
	sessions := w.sessions
	pending := w.pending
	ensure := w.ensure
	w.sessions = nil
	w.pending = nil
	w.ensure = nil
	name := w.name
	w.mu.Unlock()

	err := fmt.Errorf("cluster: worker %s at %s lost: %v", name, w.addr, cause)
	for _, h := range sessions {
		h.connLost(err)
	}
	for _, ch := range pending {
		close(ch)
	}
	for _, chs := range ensure {
		for _, ch := range chs {
			close(ch)
		}
	}
}

func (w *workerRef) recordFailure() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.consecFails++
	if w.consecFails >= w.d.opts.BreakerFailures {
		w.openUntil = time.Now().Add(w.d.opts.BreakerCooldown)
	}
}

// breakerState reports "closed", "open", or "half-open". Half-open
// means the cooldown elapsed: the next placement may probe the worker,
// and a handshake success closes the breaker again.
func (w *workerRef) breakerState() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.breakerStateLocked()
}

func (w *workerRef) breakerStateLocked() string {
	if w.consecFails < w.d.opts.BreakerFailures {
		return "closed"
	}
	if time.Now().Before(w.openUntil) {
		return "open"
	}
	return "half-open"
}

// placeable reports whether new sessions may land here: connected, not
// draining, not removed from the fleet, breaker not open.
func (w *workerRef) placeable() bool {
	if w.halted() {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn != nil && !w.draining && w.breakerStateLocked() != "open"
}

// load reports the placement signals: the declared capacity left after
// the analysis-priced demand of every partition placed here (+Inf for an
// unpriced member), and how many partitions that is.
func (w *workerRef) load() (room float64, parts int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.capacity <= 0 {
		return math.Inf(1), len(w.sessions)
	}
	return w.capacity - w.demandLocked(), len(w.sessions)
}

// demandLocked sums the analysis-priced demand of the partitions placed
// here. Caller holds w.mu.
func (w *workerRef) demandLocked() float64 {
	demand := 0.0
	for _, h := range w.sessions {
		demand += h.demandCyc()
	}
	return demand
}

func (w *workerRef) pingLoop(conn *wire.Conn, stop chan struct{}) {
	t := time.NewTicker(w.d.opts.PingInterval)
	defer t.Stop()
	nonce := uint64(0)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			nonce++
			if conn.Write(&wire.Ping{Nonce: nonce}) != nil {
				conn.Close()
				return
			}
			last := time.Unix(0, w.lastPong.Load())
			if time.Since(last) > w.d.opts.PingTimeout {
				// Health check failed: the worker stopped answering.
				conn.Close()
				return
			}
		}
	}
}

func (w *workerRef) readLoop(conn *wire.Conn) error {
	for {
		m, err := conn.Read()
		if err != nil {
			return err
		}
		switch m := m.(type) {
		case *wire.Pong:
			w.lastPong.Store(time.Now().UnixNano())
		case *wire.PipelineReady:
			w.mu.Lock()
			chs := w.ensure[m.ID]
			delete(w.ensure, m.ID)
			if m.Err == "" && w.known != nil {
				w.known[m.ID] = true
			}
			w.mu.Unlock()
			for _, ch := range chs {
				ch <- m
			}
		case *wire.SessionOpened:
			w.mu.Lock()
			ch := w.pending[m.SID]
			delete(w.pending, m.SID)
			w.mu.Unlock()
			if ch != nil {
				ch <- m
			}
			if err := w.drainedHangup(); err != nil {
				return err
			}
		case *wire.Result:
			w.resultsRecv.Add(1)
			if h := w.session(m.SID); h != nil {
				h.deliver(w, m)
			} else {
				releaseResult(m)
			}
		case *wire.Credit:
			if h := w.session(m.SID); h != nil {
				h.addCredits(int(m.N))
			}
		case *wire.SessionClosed:
			w.mu.Lock()
			h := w.sessions[m.SID]
			delete(w.sessions, m.SID)
			w.mu.Unlock()
			if h != nil {
				h.onClosed(w, m)
			}
			if err := w.drainedHangup(); err != nil {
				return err
			}
		case *wire.Error:
			if m.SID == 0 {
				return fmt.Errorf("worker error: %s", m.Msg)
			}
			if h := w.session(m.SID); h != nil {
				// A worker-reported execution error is deterministic:
				// replaying the partition elsewhere would only fail again.
				h.ps.fail(fmt.Errorf("cluster: worker %s: %s", w.addr, m.Msg))
			}
		case *wire.EdgeFrame:
			if h := w.session(m.SID); h != nil {
				h.edgeFrame(w, m)
			} else {
				releaseWireItems(m.Items)
			}
		case *wire.EdgeCredit:
			if h := w.session(m.SID); h != nil {
				h.edgeCredit(w, m)
			}
		case *wire.Goaway:
			// The worker is draining: move everything off it before it
			// exits.
			w.drain()
			if err := w.drainedHangup(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected %s frame", m.Type())
		}
	}
}

// errDrained ends the read loop of a fully-drained connection: the
// frontend hangs up so the worker sees a clean EOF with nothing unread
// (closing from the worker side could RST the final SessionClosed away).
var errDrained = errors.New("worker drained")

// drainedHangup reports errDrained once a draining worker has no
// sessions or opens left on this connection.
func (w *workerRef) drainedHangup() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining && len(w.sessions) == 0 && len(w.pending) == 0 && len(w.ensure) == 0 {
		return errDrained
	}
	return nil
}

func (w *workerRef) session(sid uint64) *partitionHalf {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sessions[sid]
}

// drain stops placing sessions on this worker and moves every resident
// partition to a survivor, falling back to a quiesce-and-close where
// migration is impossible.
func (w *workerRef) drain() {
	w.mu.Lock()
	w.draining = true
	halves := w.residentLocked()
	w.mu.Unlock()
	for _, h := range halves {
		h.drainClose(w)
	}
}

// residentLocked snapshots the partitions placed on this worker, for
// callers that must act on them outside w.mu. Caller holds w.mu.
func (w *workerRef) residentLocked() []*partitionHalf {
	halves := make([]*partitionHalf, 0, len(w.sessions))
	for _, h := range w.sessions {
		halves = append(halves, h)
	}
	return halves
}

// unregister drops a failed open's session and pending entries. When
// that leaves a draining connection fully idle it hangs the connection
// up here: the read loop's drained-hangup check only runs on frame
// arrival, and no further frame may ever come.
func (w *workerRef) unregister(conn *wire.Conn, sid uint64) {
	w.mu.Lock()
	if w.conn != conn {
		w.mu.Unlock()
		return
	}
	delete(w.pending, sid)
	delete(w.sessions, sid)
	hangup := w.draining && len(w.sessions) == 0 && len(w.pending) == 0 && len(w.ensure) == 0
	w.mu.Unlock()
	if hangup {
		conn.Close()
	}
}

// ensurePipeline asks the worker to register p, shipping the JSON
// descriptor when the pipeline has one; suite pipelines compile from
// their ID alone.
func (w *workerRef) ensurePipeline(conn *wire.Conn, p *serve.Pipeline) error {
	reply := make(chan *wire.PipelineReady, 1)
	w.mu.Lock()
	if w.conn != conn {
		w.mu.Unlock()
		return fmt.Errorf("cluster: worker %s reconnected during ensure", w.addr)
	}
	first := len(w.ensure[p.ID]) == 0
	w.ensure[p.ID] = append(w.ensure[p.ID], reply)
	w.mu.Unlock()

	if first {
		m := &wire.EnsurePipeline{ID: p.ID, Source: p.Source, Desc: p.Descriptor()}
		if err := conn.Write(m); err != nil {
			conn.Close()
			return fmt.Errorf("cluster: ensure %q on %s: %w", p.ID, w.addr, err)
		}
	}
	select {
	case m, ok := <-reply:
		if !ok {
			return fmt.Errorf("cluster: worker %s lost during ensure", w.addr)
		}
		if m.Err != "" {
			return fmt.Errorf("cluster: worker %s cannot serve %q: %s", w.addr, p.ID, m.Err)
		}
		return nil
	case <-time.After(w.d.opts.OpenTimeout):
		w.abandonEnsure(p.ID, reply)
		return fmt.Errorf("cluster: ensure %q on %s timed out", p.ID, w.addr)
	}
}

// abandonEnsure removes a timed-out waiter from the ensure list so one
// unanswered EnsurePipeline cannot wedge every later ensure of the same
// pipeline: once the list drains back to empty, the next caller sends a
// fresh EnsurePipeline frame instead of waiting on the dead request.
func (w *workerRef) abandonEnsure(id string, ch chan *wire.PipelineReady) {
	w.mu.Lock()
	defer w.mu.Unlock()
	chs := w.ensure[id]
	for i, c := range chs {
		if c == ch {
			chs = append(chs[:i], chs[i+1:]...)
			break
		}
	}
	if len(chs) == 0 {
		delete(w.ensure, id)
	} else {
		w.ensure[id] = chs
	}
}

func (w *workerRef) stats() WorkerStats {
	w.mu.Lock()
	state := "down"
	if w.conn != nil {
		state = "connected"
	}
	if w.halted() {
		state = "removed"
	}
	s := WorkerStats{
		Addr:        w.addr,
		Name:        w.name,
		Member:      w.member,
		State:       state,
		Breaker:     w.breakerStateLocked(),
		Draining:    w.draining,
		Sessions:    len(w.sessions),
		CapacityCyc: w.capacity,
		DemandCyc:   w.demandLocked(),
	}
	w.mu.Unlock()
	s.FramesRouted = w.framesRouted.Load()
	s.ResultsReceived = w.resultsRecv.Load()
	s.Reconnects = w.reconnects.Load()
	return s
}

func releaseResult(m *wire.Result) {
	for _, out := range m.Outputs {
		for _, win := range out.Wins {
			win.Release()
		}
	}
}

// logEntry is one fed frame in the session's replay history. Generated
// frames (nil inputs) carry nothing — the worker regenerates them from
// the frame index; explicit inputs hold one arena reference per window
// until the session ends.
type logEntry struct {
	inputs []wire.NamedWindow
}

// validateInputs applies the runtime's feed-time checks locally so bad
// frames bounce at the frontend without a round trip, with the same
// ErrBadFrame tag the HTTP layer maps to 400.
func validateInputs(p *serve.Pipeline, inputs map[string]frame.Window) error {
	g := p.Graph()
	for name, w := range inputs {
		n := g.Node(name)
		if n == nil || n.Kind != graph.KindInput {
			return fmt.Errorf("%w: unknown input %q", runtime.ErrBadFrame, name)
		}
		if w.W != n.FrameSize.W || w.H != n.FrameSize.H {
			return fmt.Errorf("%w: input %q is %dx%d, want %dx%d",
				runtime.ErrBadFrame, name, w.W, w.H, n.FrameSize.W, n.FrameSize.H)
		}
		if want := n.Output("out").Elem; w.Kind != want {
			return fmt.Errorf("%w: input %q carries %s samples, declared %s",
				runtime.ErrBadFrame, name, w.Kind, want)
		}
	}
	return nil
}

// serveReleaseOutputs returns a result's pooled windows to the arena.
func serveReleaseOutputs(outs map[string][]frame.Window) {
	for _, ws := range outs {
		for _, w := range ws {
			w.Release()
		}
	}
}
