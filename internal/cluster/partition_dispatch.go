package cluster

// Dispatcher-side sessions. Every session is a placement plan
// (internal/placement) executed one partition per worker: openSession
// splits the compiled graph across the open's candidate workers — into
// a single partition holding every node when the session runs whole —
// and co-schedules the partitions all-or-nothing. The resulting
// partitionedSession implements serve.SessionHandle by routing each
// feed to the partitions owning input nodes, relaying cut edge streams
// (and their credits) between the workers, and merging per-partition
// results back into one in-order stream.
//
// Placement is all-or-nothing but failure is not: the session logs its
// feeds and every cut edge's item stream against the replay budget and
// tracks per-edge delivery/credit watermarks, so when a partition's
// worker dies, drains, or stalls only that partition is re-homed onto a
// survivor and replayed — see partition_recover.go. The session ends
// with a typed serve.ErrSessionLost only when the budget is exhausted,
// a second partition dies mid-recovery, or no replacement worker
// appears within the failover window.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/placement"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// plan returns the pipeline's placement for an n-way split, computing
// it on first use. Plans are cached per (pipeline, n): a split depends
// only on the compiled graph and the target count, and the fixed seed
// keeps every session of a pipeline on the same split at a given
// fleet size. n == 1 is the trivial plan: every node, no cuts.
func (d *Dispatcher) plan(p *serve.Pipeline, n int) (*placement.Plan, error) {
	key := fmt.Sprintf("%s/%d", p.ID, n)
	d.planMu.Lock()
	defer d.planMu.Unlock()
	if pl, ok := d.plans[key]; ok {
		return pl, nil
	}
	g, r, m := p.Graph(), p.Analysis(), p.Machine()
	pl, err := placement.PlanGraph(g, r, m, placement.EvenFleet(g, r, m, n), 1)
	if err != nil {
		return nil, err
	}
	d.plans[key] = pl
	return pl, nil
}

// openSession lowers one session to a placement plan over the open's
// candidate workers (see candidates) and places its partitions,
// all-or-nothing. The split spans as many candidates as the fleet has
// right now, capped at the configured partition count; partition i
// opens on the next untried candidate, and a refusal moves on to the
// one after — for a one-partition plan, simply "try the next worker".
// A degraded fleet gets a shallower split, down to the whole graph on
// one worker, instead of a refusal.
func (d *Dispatcher) openSession(p *serve.Pipeline, opts serve.OpenOptions) (*partitionedSession, error) {
	cands := d.candidates(p, opts)
	if len(cands) == 0 {
		return nil, errors.New("no healthy cluster worker")
	}
	plan, err := d.plan(p, min(max(d.opts.Partitions, 1), len(cands)))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	ps := newPartitionedSession(d, p, plan, opts)
	next := 0
	for i := range plan.Partitions {
		placed := false
		lastErr := errors.New("no candidate worker left")
		for !placed && next < len(cands) {
			w := cands[next]
			next++
			h, err := w.placePartition(ps, i, 0, nil)
			if err != nil {
				lastErr = err
				continue
			}
			ps.mu.Lock()
			ended, cause, lost := ps.ended, ps.err, h.openLost
			if !ended && lost == nil {
				ps.halves = append(ps.halves, h)
				placed = true
			}
			ps.mu.Unlock()
			if ended {
				// The session failed while this partition opened; terminate
				// never saw the new half, so abort it here.
				h.retire("session ended during co-schedule")
				// A connection lost mid co-schedule is a placement failure,
				// not a dead handle. A failure the worker itself reported is
				// the session's outcome, surfaced by Collect and Close.
				if errors.Is(cause, serve.ErrSessionLost) {
					return nil, fmt.Errorf("partition lost during co-schedule: %v", cause)
				}
				return ps, nil
			}
			if lost != nil {
				// The worker acknowledged the open, then its connection
				// died before the half was adopted: try the next one.
				lastErr = lost
				continue
			}
			// Started here, not after the loop: once adopted, a recovery
			// may replace the half and start its successor's relay.
			go h.relay()
		}
		if !placed {
			ps.terminate(fmt.Errorf("%w: partition %d: %v", serve.ErrSessionLost, i, lastErr), true)
			return nil, fmt.Errorf("partition %d: %v", i, lastErr)
		}
	}
	if d.opts.StallTimeout > 0 {
		go ps.stallWatch()
	}
	return ps, nil
}

// newPartitionedSession builds the frontend state for one session over
// plan, before any partition is placed.
func newPartitionedSession(d *Dispatcher, p *serve.Pipeline, plan *placement.Plan, opts serve.OpenOptions) *partitionedSession {
	n := len(plan.Partitions)
	ps := &partitionedSession{
		d:            d,
		p:            p,
		plan:         plan,
		maxInFlight:  opts.MaxInFlight,
		statsID:      d.nextSID.Add(1),
		inputOwner:   make(map[string]int),
		delivered:    make([]int64, n),
		bufs:         make([][]map[string][]frame.Window, n),
		cuts:         make([]cutEdgeState, len(plan.Cuts)),
		logFull:      d.opts.ReplayBudget < 0,
		lastProgress: time.Now(),
		results:      make(chan *runtime.StreamResult, opts.MaxInFlight+1),
		done:         make(chan struct{}),
	}
	if opts.Deadline > 0 {
		ps.deadline = time.Now().Add(opts.Deadline)
	}
	partOf := make(map[string]int)
	for i, part := range plan.Partitions {
		for _, name := range part.Nodes {
			partOf[name] = i
		}
	}
	feedSet := make(map[int]bool)
	for _, in := range p.Graph().Inputs() {
		idx := partOf[in.Name()]
		ps.inputOwner[in.Name()] = idx
		feedSet[idx] = true
	}
	outSet := make(map[int]bool)
	for _, out := range p.Graph().Outputs() {
		outSet[partOf[out.Name()]] = true
	}
	for idx := range feedSet {
		ps.feedParts = append(ps.feedParts, idx)
	}
	for idx := range outSet {
		ps.outParts = append(ps.outParts, idx)
	}
	sort.Ints(ps.feedParts)
	sort.Ints(ps.outParts)
	return ps
}

// placePartition opens partition idx of ps's plan on this worker — a
// first open, or a recovery resuming the partition at resumeResults
// with the per-edge credit overrides and skip watermarks in marks. The
// half registers before the OpenPartition frame hits the wire, so no
// event naming its sid can fall into an unregistered gap (an
// unsolicited SessionClosed, a Goaway drain).
func (w *workerRef) placePartition(ps *partitionedSession, idx int, resumeResults int64, marks map[uint32]edgeAttempt) (*partitionHalf, error) {
	w.mu.Lock()
	conn := w.conn
	needEnsure := !w.known[ps.p.ID]
	w.mu.Unlock()
	if conn == nil {
		return nil, fmt.Errorf("cluster: worker %s not connected", w.addr)
	}
	if needEnsure {
		if err := w.ensurePipeline(conn, ps.p); err != nil {
			return nil, err
		}
	}
	var deadlineMs uint32
	if !ps.deadline.IsZero() {
		rem := time.Until(ps.deadline)
		if rem <= 0 {
			return nil, fmt.Errorf("cluster: session deadline exceeded before open on %s", w.addr)
		}
		ms := int64((rem + time.Millisecond - 1) / time.Millisecond)
		if ms > int64(^uint32(0)) {
			ms = int64(^uint32(0))
		}
		deadlineMs = uint32(ms)
	}

	sid := w.d.nextSID.Add(1)
	h := &partitionHalf{ps: ps, idx: idx, w: w, sid: sid, conn: conn, heard: time.Now()}
	h.rcond = sync.NewCond(&h.rmu)
	reply := make(chan *wire.SessionOpened, 1)
	w.mu.Lock()
	if w.conn != conn {
		w.mu.Unlock()
		return nil, fmt.Errorf("cluster: worker %s reconnected during open", w.addr)
	}
	w.pending[sid] = reply
	w.sessions[sid] = h
	w.mu.Unlock()

	m := &wire.OpenPartition{
		SID:           sid,
		Pipeline:      ps.p.ID,
		Partition:     uint32(idx),
		MaxInFlight:   uint32(ps.maxInFlight),
		DeadlineMs:    deadlineMs,
		ResumeResults: resumeResults,
		Nodes:         ps.plan.Partitions[idx].Nodes,
	}
	for _, c := range ps.plan.Cuts {
		spec := wire.EdgeSpec{
			ID: c.ID, Credit: uint32(c.Credit),
			FromNode: c.FromNode, FromPort: c.FromPort,
			ToNode: c.ToNode, ToPort: c.ToPort,
		}
		switch idx {
		case c.To:
			spec.Dir = wire.EdgeIn
		case c.From:
			spec.Dir = wire.EdgeOut
			if mark, ok := marks[c.ID]; ok {
				spec.Credit = mark.credit
				m.Resume = append(m.Resume, wire.EdgeResume{Edge: c.ID, SkipItems: mark.skip})
			}
		default:
			continue
		}
		m.Edges = append(m.Edges, spec)
	}
	if err := conn.Write(m); err != nil {
		w.unregister(conn, sid)
		conn.Close()
		return nil, fmt.Errorf("cluster: open partition on %s: %w", w.addr, err)
	}
	select {
	case r, ok := <-reply:
		if !ok {
			return nil, fmt.Errorf("cluster: worker %s lost during open", w.addr)
		}
		if r.Err != "" {
			w.unregister(conn, sid)
			return nil, fmt.Errorf("cluster: worker %s refused partition: %s", w.addr, r.Err)
		}
	case <-time.After(w.d.opts.OpenTimeout):
		w.unregister(conn, sid)
		return nil, fmt.Errorf("cluster: open on %s timed out after %v", w.addr, w.d.opts.OpenTimeout)
	}
	return h, nil
}

// partitionedSession is one cluster session: a placement plan whose
// partitions run on one worker each — a single partition when the
// session runs whole. It implements serve.SessionHandle; its per-worker
// presences are partitionHalf values registered in each worker's
// session table.
//
// Flow control is one window: TryFeed bounds fed-minus-collected by
// MaxInFlight, exactly the local session's bound, and nothing else
// gates a feed. No per-partition credit tracking is needed — a merged
// result requires every output partition to have finished the frame,
// which requires every upstream partition to have consumed it, so each
// worker's feed queue occupancy stays within its maxInFlight+1
// capacity. Cut edges pace themselves with their own credit windows,
// relayed between the halves.
type partitionedSession struct {
	d           *Dispatcher
	p           *serve.Pipeline
	plan        *placement.Plan
	maxInFlight int
	statsID     uint64    // stable key for the /metrics sessions table
	deadline    time.Time // absolute session deadline; zero = unbounded

	inputOwner map[string]int // input node name -> owning partition
	feedParts  []int          // partitions owning at least one input
	outParts   []int          // partitions owning at least one output

	// sendMu orders feeds and the close on every half's wire: Seq order
	// per partition, and the close after the last accepted feed.
	sendMu sync.Mutex

	mu sync.Mutex
	// halves[i] is partition i's current worker presence; recovery swaps
	// an entry in place, so reads outside openSession take ps.mu.
	halves    []*partitionHalf
	fed       int64
	completed int64   // merged results delivered to the results channel
	collected int64   // results handed to Collect callers
	delivered []int64 // per-partition next expected result seq
	// bufs queues each output partition's per-frame outputs until every
	// output partition has delivered the frame; bounded by the feed
	// window (fed - completed <= maxInFlight).
	bufs      [][]map[string][]frame.Window
	closedN   int
	closeSent bool
	noFeed    error // feeds refused (worker draining); results still flow
	ended     bool
	err       error
	admitted  float64 // cycles/sec held from the admission pool; returned by terminate
	// lastProgress is the last feed, result, credit, or cut-edge item
	// the session saw; the stall watchdog measures silence from it.
	lastProgress time.Time

	// Partition recovery state. feedLog holds every accepted feed (entry
	// index == seq); cuts holds each cut edge's item log and watermarks.
	// Both charge logBytes against the dispatcher's ReplayBudget; when it
	// overflows, logFull releases everything and any partition death
	// becomes fatal.
	feedLog       []logEntry
	cuts          []cutEdgeState
	logBytes      int64
	logFull       bool
	recovering    bool // a partition is being reopened; feeds are paused
	recoveringIdx int

	results chan *runtime.StreamResult
	done    chan struct{}
}

// cutEdgeState is the frontend's view of one cut edge, guarded by
// ps.mu. The watermarks make per-partition replay possible: sent counts
// items delivered toward the edge's CURRENT consumer instance, acked
// counts credits relayed toward the producer (after swallowing), and
// rawAcks counts every credit the consumer ever returned. While the
// consumer recovers, buffering parks live items in the log instead of
// relaying them, and swallow absorbs the replayed instance's
// re-acknowledgements of items the producer was already credited for.
type cutEdgeState struct {
	log       []wire.Item // full item history, in order (log retains windows)
	sent      uint64
	acked     uint64
	rawAcks   uint64
	swallow   uint64
	buffering bool
	eosLogged bool // producer ended the stream at len(log)
	eosSent   bool // EOS delivered to the current consumer instance
}

// terminate ends the session once — every termination funnels through
// here, so the admission hold is returned exactly once: buffered
// partial frames are released, relays stop, and done closes. With
// notify set (failure paths) every half is also torn out of its
// worker's table and its worker told to abort — the surviving
// partitions must not keep running a session whose peer died.
func (ps *partitionedSession) terminate(err error, notify bool) {
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		return
	}
	ps.ended = true
	if ps.err == nil {
		ps.err = err
	}
	for i := range ps.bufs {
		for _, outs := range ps.bufs[i] {
			serveReleaseOutputs(outs)
		}
		ps.bufs[i] = nil
	}
	ps.releaseLogsLocked()
	halves := append([]*partitionHalf(nil), ps.halves...)
	admitted := ps.admitted
	ps.admitted = 0
	ps.mu.Unlock()
	if admitted > 0 {
		ps.d.releaseAdmission(admitted)
	}
	for _, h := range halves {
		h.stopRelay()
		if notify {
			h.w.unregister(h.conn, h.sid)
			h.conn.Write(&wire.Error{SID: h.sid, Msg: "session failed"})
		}
	}
	close(ps.done)
}

// logFeedLocked appends one accepted feed to the replay log, taking
// over the caller's window references on success. Caller holds ps.mu.
func (ps *partitionedSession) logFeedLocked(inputs map[string]frame.Window) bool {
	if ps.logFull {
		return false
	}
	var entry logEntry
	var sz int64
	for name, win := range inputs {
		sz += int64(win.W) * int64(win.H) * 8
		entry.inputs = append(entry.inputs, wire.NamedWindow{Name: name, Win: win})
	}
	if ps.logBytes+sz > ps.d.opts.ReplayBudget {
		ps.logFullLocked()
		return false
	}
	ps.feedLog = append(ps.feedLog, entry)
	ps.logBytes += sz
	return true
}

// logEdgeItemsLocked appends one edge frame's items to the edge's
// replay log, retaining each data window for the log's reference.
// Caller holds ps.mu.
func (ps *partitionedSession) logEdgeItemsLocked(es *cutEdgeState, items []wire.Item) bool {
	if ps.logFull {
		return false
	}
	var sz int64
	for _, it := range items {
		if !it.IsToken {
			sz += int64(it.Win.W) * int64(it.Win.H) * 8
		}
	}
	if ps.logBytes+sz > ps.d.opts.ReplayBudget {
		ps.logFullLocked()
		return false
	}
	for _, it := range items {
		if !it.IsToken {
			it.Win.Retain(1)
		}
	}
	es.log = append(es.log, items...)
	ps.logBytes += sz
	return true
}

// logFullLocked abandons recoverability: a partial history can never
// replay byte-identically, so every retained window goes back to the
// arena at once rather than pinning the budget for nothing.
func (ps *partitionedSession) logFullLocked() {
	ps.logFull = true
	ps.releaseLogsLocked()
}

func (ps *partitionedSession) releaseLogsLocked() {
	for _, e := range ps.feedLog {
		for _, in := range e.inputs {
			in.Win.Release()
		}
	}
	ps.feedLog = nil
	for i := range ps.cuts {
		releaseWireItems(ps.cuts[i].log)
		ps.cuts[i].log = nil
	}
	ps.logBytes = 0
}

func (ps *partitionedSession) fail(err error) { ps.terminate(err, true) }

func (ps *partitionedSession) sessionErr() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.err != nil {
		return ps.err
	}
	return errors.New("cluster: session failed")
}

// sessionRow reports the session's /metrics row.
func (ps *partitionedSession) sessionRow() (SessionStats, uint64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	row := SessionStats{
		Pipeline:    ps.p.ID,
		Partitions:  len(ps.halves),
		Workers:     make([]string, 0, len(ps.halves)),
		ReplayBytes: ps.logBytes,
	}
	for _, h := range ps.halves {
		row.Workers = append(row.Workers, h.w.addr)
	}
	return row, ps.statsID
}

// sendClose ships CloseSession to every half, after any in-flight
// feed. A partition mid-recovery is skipped: reopenOn delivers its
// close once the replay lands (closeSent stays set so it knows to).
func (ps *partitionedSession) sendClose() {
	ps.sendMu.Lock()
	defer ps.sendMu.Unlock()
	ps.mu.Lock()
	halves := append([]*partitionHalf(nil), ps.halves...)
	skip := -1
	if ps.recovering {
		skip = ps.recoveringIdx
	}
	ps.mu.Unlock()
	for i, h := range halves {
		if i == skip {
			continue
		}
		if err := h.conn.Write(&wire.CloseSession{SID: h.sid}); err != nil {
			h.conn.Close()
		}
	}
}

// TryFeed validates the frame locally (same checks and error values as
// runtime.Session) and routes it: each partition owning input nodes
// gets a Feed carrying its subset of the explicit windows (absent
// inputs regenerate worker-side from the frame index). A full window —
// or a recovery in progress — is ErrQueueFull, exactly the local
// backpressure signal. On success the transport owns the pooled
// inputs: the replay log retains them until the session ends (with
// recovery off they release once encoded).
func (ps *partitionedSession) TryFeed(inputs map[string]frame.Window) (int64, error) {
	if err := validateInputs(ps.p, inputs); err != nil {
		return 0, err
	}
	ps.sendMu.Lock()
	ps.mu.Lock()
	if ps.ended {
		err := ps.err
		ps.mu.Unlock()
		ps.sendMu.Unlock()
		if errors.Is(err, runtime.ErrSessionClosed) {
			return 0, runtime.ErrSessionClosed
		}
		return 0, err
	}
	if ps.noFeed != nil {
		err := ps.noFeed
		ps.mu.Unlock()
		ps.sendMu.Unlock()
		return 0, err
	}
	// A recovery in progress pauses the feed plane: the replay snapshot
	// freezes at ps.fed, and the client sees ordinary backpressure.
	if ps.fed-ps.collected >= int64(ps.maxInFlight) || ps.recovering {
		ps.mu.Unlock()
		ps.sendMu.Unlock()
		return 0, runtime.ErrQueueFull
	}
	seq := ps.fed
	ps.fed++
	ps.lastProgress = time.Now()
	// The replay log takes over the caller's references; retain one per
	// window for the wire writes below. When the log is full the writes
	// consume the caller's references directly.
	if ps.logFeedLocked(inputs) {
		for _, win := range inputs {
			win.Retain(1)
		}
	}
	// Snapshot the feeding halves: recovery swaps entries under ps.mu.
	var hbuf [4]*partitionHalf
	halves := hbuf[:0]
	for _, idx := range ps.feedParts {
		halves = append(halves, ps.halves[idx])
	}
	ps.mu.Unlock()

	for i, idx := range ps.feedParts {
		h := halves[i]
		m := &wire.Feed{SID: h.sid, Seq: seq}
		for name, win := range inputs {
			if ps.inputOwner[name] == idx {
				m.Inputs = append(m.Inputs, wire.NamedWindow{Name: name, Win: win})
			}
		}
		if err := h.conn.Write(m); err != nil {
			// The connection died under the feed; connLost recovers the
			// partition (or fails the session) and the replay re-delivers
			// this frame. The feed counts as accepted either way.
			h.conn.Close()
		}
		h.w.framesRouted.Add(1)
	}
	for _, win := range inputs {
		win.Release()
	}
	ps.sendMu.Unlock()
	return seq, nil
}

// Collect returns the next merged frame in order. Its timeout error
// wraps runtime.ErrCollectTimeout so the HTTP layer maps it to 504 like
// a local session's; after a failure, results buffered before it still
// drain before the error surfaces.
func (ps *partitionedSession) Collect(timeout time.Duration) (*runtime.StreamResult, error) {
	var tc <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		tc = t.C
	}
	select {
	case res := <-ps.results:
		ps.noteCollected()
		return res, nil
	case <-tc:
		return nil, fmt.Errorf("cluster: %w after %v", runtime.ErrCollectTimeout, timeout)
	case <-ps.done:
		select {
		case res := <-ps.results:
			ps.noteCollected()
			return res, nil
		default:
		}
		return nil, ps.sessionErr()
	}
}

func (ps *partitionedSession) noteCollected() {
	ps.mu.Lock()
	ps.collected++
	ps.mu.Unlock()
}

func (ps *partitionedSession) Fed() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.fed
}

func (ps *partitionedSession) Completed() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.completed
}

func (ps *partitionedSession) InFlight() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.fed - ps.collected
}

// Close drains every partition: each worker finishes its fed frames,
// end-of-stream propagates across the cut edges, and once all halves
// report SessionClosed the session completes. The close timeout
// escalates to a hard abort of every partition. Close returns the
// session's failure, if any — a clean shutdown (including one
// recovered by failover) returns nil.
func (ps *partitionedSession) Close() error {
	ps.mu.Lock()
	already := ps.closeSent
	ps.closeSent = true
	ended := ps.ended
	ps.mu.Unlock()
	if !already && !ended {
		ps.sendClose()
	}
	select {
	case <-ps.done:
	case <-time.After(ps.d.opts.CloseTimeout):
		ps.fail(fmt.Errorf("cluster: session close not acknowledged within %v",
			ps.d.opts.CloseTimeout))
	}
	for {
		select {
		case res := <-ps.results:
			serveReleaseOutputs(res.Outputs)
		default:
			ps.mu.Lock()
			err := ps.err
			ps.mu.Unlock()
			if errors.Is(err, runtime.ErrSessionClosed) {
				return nil
			}
			return err
		}
	}
}

// partitionHalf is one partition's presence on its worker connection:
// what the worker read loop routes frames through, plus the relay
// queue carrying cut-edge traffic addressed to this partition.
// Relays run on their own goroutine so a read loop never blocks
// writing to a different worker's connection — two read loops relaying
// toward each other's connections could otherwise deadlock.
type partitionHalf struct {
	ps   *partitionedSession
	idx  int
	w    *workerRef
	sid  uint64
	conn *wire.Conn

	// credits counts frames THIS worker instance reported back — its
	// results and explicit credits — guarded by ps.mu; replayFeeds paces
	// the feed history against it.
	credits int64
	// heard is when this half last showed forward progress (a result, a
	// credit, or cut-edge items it produced), guarded by ps.mu. The
	// stall watchdog recovers the half silent longest.
	heard time.Time
	// openLost is set, under ps.mu, when the connection died while
	// openSession was still placing this half; it is then never adopted.
	openLost error

	rmu    sync.Mutex
	rcond  *sync.Cond
	relayq []wire.Msg
	rstop  bool
}

// enqueueRelay queues one already-retargeted message for this half's
// connection, taking ownership of any edge-frame items. The queue is
// bounded by the edges' credit windows — a producer only sends items
// it holds credits for.
func (h *partitionHalf) enqueueRelay(m wire.Msg) {
	h.rmu.Lock()
	if h.rstop {
		h.rmu.Unlock()
		if ef, ok := m.(*wire.EdgeFrame); ok {
			releaseWireItems(ef.Items)
		}
		return
	}
	h.relayq = append(h.relayq, m)
	h.rcond.Signal()
	h.rmu.Unlock()
}

func (h *partitionHalf) stopRelay() {
	h.rmu.Lock()
	h.rstop = true
	h.rcond.Broadcast()
	h.rmu.Unlock()
}

// relay drains the queue onto the connection in order. A write failure
// closes the connection — connLost decides whether that means a
// partition recovery or the end of the session — and the loop keeps
// consuming (and releasing) queued messages until stopRelay arrives, so
// every queued window returns to the arena.
func (h *partitionHalf) relay() {
	broken := false
	for {
		h.rmu.Lock()
		for len(h.relayq) == 0 && !h.rstop {
			h.rcond.Wait()
		}
		q := h.relayq
		h.relayq = nil
		stop := h.rstop
		h.rmu.Unlock()
		for _, m := range q {
			if !broken {
				if err := h.conn.Write(m); err != nil {
					h.conn.Close()
					broken = true
				}
			}
			if ef, ok := m.(*wire.EdgeFrame); ok {
				releaseWireItems(ef.Items)
			}
		}
		if stop {
			return
		}
	}
}

// deliver merges one partition's per-frame result into the global
// stream: each output partition's local seq equals the global frame
// seq (every frame crosses every partition), so frame k completes once
// all output partitions have delivered k. Every result received counts
// as one of this instance's credits, duplicates included — the worker
// sends exactly one Result or Credit per frame.
func (h *partitionHalf) deliver(w *workerRef, m *wire.Result) {
	ps := h.ps
	outputs := make(map[string][]frame.Window, len(m.Outputs))
	for _, out := range m.Outputs {
		outputs[out.Name] = out.Wins
	}
	ps.mu.Lock()
	h.credits++
	if ps.ended {
		ps.mu.Unlock()
		serveReleaseOutputs(outputs)
		return
	}
	if m.Seq < ps.delivered[h.idx] {
		// A reopened partition re-produces the stream from the start;
		// the worker suppresses results below its resume watermark, but
		// a racing result that crossed the wire before the old conn died
		// can still land here twice. At-most-once: drop it.
		ps.mu.Unlock()
		serveReleaseOutputs(outputs)
		return
	}
	if m.Seq != ps.delivered[h.idx] {
		// A gap: result delivered[h.idx] was lost in transit while later
		// frames were in flight. Recover the partition; its replay
		// resumes at the lost result. A gap from a replaced half, or from
		// the partition already under recovery, needs nothing more; one
		// while another partition recovers is a second failure.
		serveReleaseOutputs(outputs)
		cause := fmt.Errorf("cluster: worker %s delivered frame %d of partition %d, want %d",
			w.addr, m.Seq, h.idx, ps.delivered[h.idx])
		switch {
		case ps.halves[h.idx] != h || ps.recovering && ps.recoveringIdx == h.idx:
			ps.mu.Unlock()
		case ps.recovering:
			ps.mu.Unlock()
			ps.fail(cause)
		default:
			h.recoverLostLocked(cause)
		}
		return
	}
	ps.delivered[h.idx]++
	h.heard = time.Now()
	ps.lastProgress = h.heard
	ps.bufs[h.idx] = append(ps.bufs[h.idx], outputs)
	var mbuf [4]*runtime.StreamResult
	merged := mbuf[:0]
	for ps.mergeReadyLocked() {
		// The first output partition's map becomes the merged frame's,
		// so a session with one output partition merges without copying.
		first := ps.popLocked(ps.outParts[0])
		for _, idx := range ps.outParts[1:] {
			for name, wins := range ps.popLocked(idx) {
				first[name] = wins
			}
		}
		merged = append(merged, &runtime.StreamResult{Seq: ps.completed, Outputs: first})
		ps.completed++
	}
	ps.mu.Unlock()
	for _, res := range merged {
		select {
		case ps.results <- res:
		default:
			serveReleaseOutputs(res.Outputs)
			ps.fail(fmt.Errorf("cluster: worker %s overran the result window", w.addr))
		}
	}
}

// mergeReadyLocked reports whether every output partition has buffered
// the next frame. Caller holds ps.mu.
func (ps *partitionedSession) mergeReadyLocked() bool {
	for _, idx := range ps.outParts {
		if len(ps.bufs[idx]) == 0 {
			return false
		}
	}
	return true
}

// popLocked dequeues output partition idx's oldest buffered frame,
// shifting in place so the queue's storage is reused frame after frame.
// Caller holds ps.mu.
func (ps *partitionedSession) popLocked(idx int) map[string][]frame.Window {
	q := ps.bufs[idx]
	head := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	ps.bufs[idx] = q[:len(q)-1]
	return head
}

// addCredits counts feed credits for frames that sent no result (see
// deliver). The session's fed-minus-collected window bounds live flow
// control on its own, but recovery replays a partition's feed history
// paced by exactly these counts — each new instance starts at zero, so
// the counter reflects only what the current instance has accepted.
func (h *partitionHalf) addCredits(n int) {
	ps := h.ps
	ps.mu.Lock()
	h.credits += int64(n)
	h.heard = time.Now()
	ps.lastProgress = h.heard
	ps.mu.Unlock()
}

// edgeFrame relays cut-edge items from the producing partition to the
// consuming one, logging them for replay and maintaining the edge's
// delivery watermark. While the consumer is mid-recovery the items only
// land in the log — its replay goroutine delivers from there, so a
// direct relay would duplicate the stream.
func (h *partitionHalf) edgeFrame(w *workerRef, m *wire.EdgeFrame) {
	ps := h.ps
	if int(m.Edge) >= len(ps.plan.Cuts) {
		releaseWireItems(m.Items)
		ps.fail(fmt.Errorf("cluster: worker %s sent unknown cut edge %d", w.addr, m.Edge))
		return
	}
	c := ps.plan.Cuts[m.Edge]
	if c.From != h.idx {
		releaseWireItems(m.Items)
		ps.fail(fmt.Errorf("cluster: worker %s sent edge %d items from partition %d, producer is %d",
			w.addr, m.Edge, h.idx, c.From))
		return
	}
	ps.mu.Lock()
	if ps.ended || len(ps.halves) != len(ps.plan.Partitions) || ps.halves[h.idx] != h {
		ps.mu.Unlock()
		releaseWireItems(m.Items)
		return
	}
	h.heard = time.Now()
	ps.lastProgress = h.heard
	es := &ps.cuts[m.Edge]
	logged := ps.logEdgeItemsLocked(es, m.Items)
	recovering := ps.recovering
	if m.EOS {
		es.eosLogged = true
		if es.eosSent {
			// A reopened producer replays its stream tail; the consumer
			// already heard end-of-stream from the dead instance's relay.
			m.EOS = false
		}
	}
	if es.buffering {
		ps.mu.Unlock()
		releaseWireItems(m.Items)
		if !logged && recovering {
			ps.fail(fmt.Errorf("%w: replay budget exhausted during partition recovery",
				serve.ErrSessionLost))
		}
		return
	}
	es.sent += uint64(len(m.Items))
	if m.EOS {
		es.eosSent = true
	}
	t := ps.halves[c.To]
	ps.mu.Unlock()
	if !logged && recovering {
		releaseWireItems(m.Items)
		ps.fail(fmt.Errorf("%w: replay budget exhausted during partition recovery",
			serve.ErrSessionLost))
		return
	}
	if len(m.Items) == 0 && !m.EOS {
		return // a fully-deduplicated end-of-stream repeat
	}
	t.enqueueRelay(&wire.EdgeFrame{SID: t.sid, Edge: m.Edge, EOS: m.EOS, Items: m.Items})
}

// edgeCredit accounts consumption credits and relays them toward the
// producing partition. Credits re-acknowledging replayed items are
// swallowed — the producer was credited for those before its consumer
// died — and credits addressed to a dead producer's stopped relay queue
// drop harmlessly: acked is the source of truth, and the reopen
// forwards the delta the new instance missed.
func (h *partitionHalf) edgeCredit(w *workerRef, m *wire.EdgeCredit) {
	ps := h.ps
	if int(m.Edge) >= len(ps.plan.Cuts) {
		ps.fail(fmt.Errorf("cluster: worker %s granted unknown cut edge %d", w.addr, m.Edge))
		return
	}
	c := ps.plan.Cuts[m.Edge]
	if c.To != h.idx {
		ps.fail(fmt.Errorf("cluster: worker %s granted edge %d credits from partition %d, consumer is %d",
			w.addr, m.Edge, h.idx, c.To))
		return
	}
	ps.mu.Lock()
	if ps.ended || len(ps.halves) != len(ps.plan.Partitions) || ps.halves[h.idx] != h {
		ps.mu.Unlock()
		return
	}
	es := &ps.cuts[m.Edge]
	es.rawAcks += uint64(m.N)
	n := uint64(m.N)
	if s := es.swallow; s > 0 {
		if s > n {
			s = n
		}
		es.swallow -= s
		n -= s
	}
	es.acked += n
	t := ps.halves[c.From]
	ps.mu.Unlock()
	if n > 0 {
		t.enqueueRelay(&wire.EdgeCredit{SID: t.sid, Edge: m.Edge, N: uint32(n)})
	}
}

// onClosed counts a partition's clean SessionClosed; the session
// completes once every half reported. A worker-reported error fails
// the whole session instead.
func (h *partitionHalf) onClosed(w *workerRef, m *wire.SessionClosed) {
	ps := h.ps
	if m.Err != "" {
		ps.fail(fmt.Errorf("cluster: worker %s closed partition %d: %s", w.addr, h.idx, m.Err))
		return
	}
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		return
	}
	ps.closedN++
	allClosed := ps.closedN == len(ps.halves)
	noFeed := ps.noFeed
	ps.mu.Unlock()
	if !allClosed {
		return
	}
	// Every half delivered its results on its own connection before its
	// SessionClosed, so the merge is complete by now.
	err := error(runtime.ErrSessionClosed)
	if noFeed != nil {
		err = noFeed
	}
	ps.terminate(err, false)
}

// demandCyc is the analysis-priced demand of the nodes this half runs —
// its partition's share, so a session's halves sum to the pipeline's
// demand however it is split. Must not block: it is called under the
// owning worker's lock.
func (h *partitionHalf) demandCyc() float64 { return h.ps.plan.Partitions[h.idx].CyclesPerSec }

var _ serve.SessionHandle = (*partitionedSession)(nil)
