package cluster

// Per-partition recovery and live migration — the cluster's one
// recovery protocol. When a partition's worker dies, drains, or stalls,
// only that partition moves: the frontend re-homes it onto a survivor,
// reopens it with an OpenPartition carrying the session's resume
// watermarks, replays its feed history and inbound cut-edge logs paced
// by the fresh instance's credit returns, and swallows the replayed
// instance's re-acknowledgements so the surviving producers' credit
// windows stay consistent. Downstream, the worker suppresses results
// below the delivery watermark and the frontend drops anything that
// still slips through — at-most-once, byte-identical to a session that
// never lost the worker. A session that runs whole is the one-partition
// case: its recovery replays the full feed history on a new worker.
//
// Correctness leans on two determinism facts: generators key on the
// absolute frame index, so a replayed feed history reproduces the exact
// stream; and the worker's edge-credit flushes fire at fixed
// consumption counts, so the reopened consumer re-flushes exactly the
// credits the dead instance had flushed — the swallow debt always
// drains to zero and the replay can hand over to live relay.

import (
	"errors"
	"fmt"
	"time"

	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// errSessionEnded aborts a recovery whose session terminated
// concurrently (client close timeout, dispatcher shutdown).
var errSessionEnded = errors.New("session ended during failover")

// beginRecoveryLocked flags partition idx as recovering: feeds pause
// (TryFeed reports ErrQueueFull) and every cut edge feeding idx starts
// buffering into its log instead of relaying. Caller holds ps.mu.
func (ps *partitionedSession) beginRecoveryLocked(idx int) {
	ps.recovering = true
	ps.recoveringIdx = idx
	for i := range ps.plan.Cuts {
		if ps.plan.Cuts[i].To == idx {
			ps.cuts[i].buffering = true
		}
	}
}

// connLost reacts to a partition's worker connection dying. One
// partition down recovers in place; a second failure mid-recovery, or a
// session past its replay budget, ends the session with a typed error.
// A session whose close was sent and whose every frame was already
// delivered just completes cleanly: only the close acknowledgement
// died with the worker.
func (h *partitionHalf) connLost(cause error) {
	ps := h.ps
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		return
	}
	if h.idx >= len(ps.halves) {
		// This partition is still being co-scheduled: openSession moves
		// on to the next candidate, exactly as for a refused open.
		h.openLost = cause
		ps.mu.Unlock()
		return
	}
	if len(ps.halves) != len(ps.plan.Partitions) {
		// An already-placed partition died mid co-schedule: openSession
		// surfaces the failure as a placement error, not a dead handle.
		ps.mu.Unlock()
		ps.fail(fmt.Errorf("%w: partition %d: %v", serve.ErrSessionLost, h.idx, cause))
		return
	}
	if ps.halves[h.idx] != h {
		// A stale, already-replaced half; nothing to do.
		ps.mu.Unlock()
		return
	}
	if ps.closeSent && ps.completed == ps.fed {
		ps.mu.Unlock()
		ps.terminate(runtime.ErrSessionClosed, true)
		return
	}
	if ps.recovering {
		if ps.recoveringIdx == h.idx {
			// The replacement under recovery died; the replay goroutines
			// observe the dead connection and the retry loop moves on.
			ps.mu.Unlock()
			return
		}
		ps.mu.Unlock()
		ps.fail(fmt.Errorf("%w: partition %d lost while partition %d recovers: %v",
			serve.ErrSessionLost, h.idx, ps.recoveringIdx, cause))
		return
	}
	if ps.logFull {
		ps.mu.Unlock()
		ps.fail(fmt.Errorf("%w: partition %d on %s: %v (session past its replay budget)",
			serve.ErrSessionLost, h.idx, h.w.addr, cause))
		return
	}
	ps.beginRecoveryLocked(h.idx)
	ps.mu.Unlock()
	h.stopRelay()
	go ps.recoverPartition(h.idx, cause, false)
}

// drainClose migrates this partition off a draining worker: the
// resident instance is aborted and the ordinary recovery path rebuilds
// it on a survivor, invisibly to the client. When the session cannot
// migrate — close already in flight, the replay budget spent, or no
// worker to move to — it falls back to quiesce-and-close: refuse
// further feeds, then close so everything already fed flushes.
func (h *partitionHalf) drainClose(w *workerRef) {
	ps := h.ps
	// The destination probe takes worker locks, which order before
	// ps.mu; probe first and let the recovery pick for real.
	movable := ps.pickRecoveryWorker(h.idx) != nil
	ps.mu.Lock()
	if ps.ended || len(ps.halves) != len(ps.plan.Partitions) || ps.halves[h.idx] != h {
		ps.mu.Unlock()
		return
	}
	if ps.closeSent {
		ps.mu.Unlock()
		return
	}
	if ps.recovering {
		// A recovery is already detaching the session from a worker —
		// possibly this very migration, when the drain heartbeat races
		// the worker's own Goaway. Closing here would end the client's
		// stream early; if this worker still hosts a partition when its
		// drain deadline passes, the force-abort lands on the ordinary
		// crash-recovery path instead.
		ps.mu.Unlock()
		return
	}
	if ps.logFull || !movable {
		if ps.noFeed == nil {
			ps.noFeed = fmt.Errorf("cluster: worker %s at %s is draining", w.name, w.addr)
		}
		ps.closeSent = true
		ps.mu.Unlock()
		ps.sendClose()
		return
	}
	ps.beginRecoveryLocked(h.idx)
	ps.mu.Unlock()
	h.retire("partition migrating off draining worker")
	go ps.recoverPartition(h.idx, fmt.Errorf("cluster: worker %s draining", w.addr), true)
}

// stallWatch runs for the session's lifetime and recovers it from
// silent stalls — the failure mode connection health checks cannot
// see: a frame lost in transit on an otherwise-healthy connection, or
// a worker that wedged without dying. With frames in flight and no
// progress within StallTimeout, the partition silent longest is
// aborted on its worker and recovered exactly as if its connection had
// died: the replay resends whatever was lost. A wrong guess costs one
// invisible replay, and the recovered half's fresh progress points the
// next check at another suspect.
func (ps *partitionedSession) stallWatch() {
	timeout := ps.d.opts.StallTimeout
	t := time.NewTicker(max(timeout/4, 5*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-ps.done:
			return
		case <-ps.d.closed:
			return
		case <-t.C:
		}
		ps.mu.Lock()
		if ps.ended || ps.recovering || ps.completed >= ps.fed {
			// Idle, or a recovery already owns the session: nothing is
			// owed, so silence is not a stall.
			ps.lastProgress = time.Now()
			ps.mu.Unlock()
			continue
		}
		if time.Since(ps.lastProgress) <= timeout {
			ps.mu.Unlock()
			continue
		}
		victim := ps.halves[0]
		for _, h := range ps.halves[1:] {
			if h.heard.Before(victim.heard) {
				victim = h
			}
		}
		victim.recoverLostLocked(fmt.Errorf("cluster: worker %s stalled: no progress on %d in-flight frames within %v",
			victim.w.addr, ps.fed-ps.completed, timeout))
	}
}

// recoverLostLocked aborts half h on its still-connected worker and
// recovers it exactly as if the connection had died — the path for a
// message lost in transit or a wedged worker, found by the stall
// watchdog or by a gap in the partition's result stream. Caller holds
// ps.mu, which is released.
func (h *partitionHalf) recoverLostLocked(cause error) {
	ps := h.ps
	if ps.logFull {
		ps.mu.Unlock()
		ps.fail(fmt.Errorf("%w: %v (session past its replay budget)", serve.ErrSessionLost, cause))
		return
	}
	ps.beginRecoveryLocked(h.idx)
	ps.mu.Unlock()
	h.retire("partition lost in transit or stalled")
	go ps.recoverPartition(h.idx, cause, false)
}

// recoverPartition re-homes partition idx: pick a replacement worker,
// reopen and replay, retry until the failover window closes. Runs on
// its own goroutine; migration says whether this counts as a live
// migration (drain) or a failover (crash or stall) in /metrics.
func (ps *partitionedSession) recoverPartition(idx int, cause error, migration bool) {
	d := ps.d
	deadline := time.Now().Add(d.opts.FailoverTimeout)
	if !ps.deadline.IsZero() && ps.deadline.Before(deadline) {
		deadline = ps.deadline
	}
	lastErr := cause
	for {
		select {
		case <-ps.done:
			return
		case <-d.closed:
			ps.fail(fmt.Errorf("%w: dispatcher closed during partition recovery: %v",
				serve.ErrSessionLost, lastErr))
			return
		default:
		}
		if time.Now().After(deadline) {
			d.shedTotal.Add(1)
			ps.fail(fmt.Errorf("%w: %w: partition %d not recovered within failover window: %v",
				serve.ErrSessionLost, serve.ErrUnavailable, idx, lastErr))
			return
		}
		w := ps.pickRecoveryWorker(idx)
		if w == nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		err := ps.reopenOn(w, idx, deadline)
		if err == nil {
			if migration {
				d.sessionsMigrated.Add(1)
			} else {
				d.partitionsFailedOver.Add(1)
			}
			ps.migrateNextDraining()
			return
		}
		if errors.Is(err, errSessionEnded) {
			return
		}
		lastErr = err
	}
}

// migrateNextDraining rolls a drain across co-located partitions.
// Recoveries are serialized per session, so when two partitions share
// a draining worker only the first drainClose can start moving; the
// second returns and would otherwise sit until the worker's drain
// deadline force-aborts it as abandoned work. Each completed recovery
// therefore kicks the next half still resident on a draining worker.
// Progress is monotone — pickRecoveryWorker never places on a
// draining worker — so the roll terminates.
func (ps *partitionedSession) migrateNextDraining() {
	ps.mu.Lock()
	if ps.ended || ps.closeSent || ps.recovering || ps.logFull ||
		len(ps.halves) != len(ps.plan.Partitions) {
		ps.mu.Unlock()
		return
	}
	halves := make([]*partitionHalf, len(ps.halves))
	copy(halves, ps.halves)
	ps.mu.Unlock()
	for _, h := range halves {
		h.w.mu.Lock()
		draining := h.w.draining
		h.w.mu.Unlock()
		if draining {
			h.drainClose(h.w)
			return
		}
	}
}

// pickRecoveryWorker chooses the dead partition's new home. The plan
// itself never changes — the partition keeps its node set, so every
// structural invariant placement.Validate enforced at planning time
// (dependence edges within a partition, the acyclic partition quotient)
// is placement-independent and holds wherever the partition lands.
// Workers not already hosting another partition of this session are
// preferred to keep the fault domains spread; a shrunken fleet falls
// back to co-locating two partitions on one worker.
func (ps *partitionedSession) pickRecoveryWorker(idx int) *workerRef {
	resident := make(map[*workerRef]bool)
	ps.mu.Lock()
	for i, h := range ps.halves {
		if i != idx {
			resident[h.w] = true
		}
	}
	ps.mu.Unlock()
	var distinct, shared *workerRef
	var dLoad, sLoad int
	for _, w := range ps.d.snapshot() {
		if !w.placeable() {
			continue
		}
		_, load := w.load()
		if !resident[w] {
			if distinct == nil || load < dLoad {
				distinct, dLoad = w, load
			}
		} else if shared == nil || load < sLoad {
			shared, sLoad = w, load
		}
	}
	if distinct != nil {
		return distinct
	}
	return shared
}

// edgeAttempt snapshots one cut edge's watermarks at the start of a
// recovery attempt, under ps.mu, so the OpenPartition frame and the
// replay agree on one consistent cut of the stream state.
type edgeAttempt struct {
	credit  uint32 // initial window granted to the reopened endpoint
	skip    uint64 // out-edge: items the new producer re-discards
	ackedAt uint64 // out-edge: credits relayed so far; install flushes the delta
}

// reopenOn runs one recovery attempt against worker w: snapshot,
// reopen, install, replay, hand over. Any error (except a concurrent
// session end) retires the half-built replacement and the caller
// retries elsewhere.
func (ps *partitionedSession) reopenOn(w *workerRef, idx int, deadline time.Time) error {
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		return errSessionEnded
	}
	if ps.logFull {
		ps.mu.Unlock()
		return fmt.Errorf("cluster: replay log released during recovery")
	}
	marks := make(map[uint32]edgeAttempt)
	var inEdges []int
	for i := range ps.plan.Cuts {
		c := &ps.plan.Cuts[i]
		es := &ps.cuts[i]
		switch idx {
		case c.To:
			// The dead partition consumed this edge: replay the full log
			// and swallow the re-acknowledgements the producer was already
			// credited for. A fresh attempt re-arms both (a previous
			// attempt may have flipped the edge or drained part of the
			// debt before failing).
			es.buffering = true
			es.swallow = es.acked
			if es.eosLogged {
				es.eosSent = false
			}
			marks[c.ID] = edgeAttempt{credit: uint32(c.Credit)}
			inEdges = append(inEdges, i)
		case c.From:
			// The dead partition produced this edge: the new instance
			// re-produces from the start, discards the already-relayed
			// prefix, and inherits the live window minus what the
			// consumer still holds.
			marks[c.ID] = edgeAttempt{
				credit:  uint32(uint64(c.Credit) - (es.sent - es.acked)),
				skip:    es.sent,
				ackedAt: es.acked,
			}
		}
	}
	resumeResults := ps.delivered[idx]
	feedTotal := ps.fed
	ps.mu.Unlock()

	h2, err := w.placePartition(ps, idx, resumeResults, marks)
	if err != nil {
		return err
	}

	// Install: from here the half receives results, credits, and edge
	// traffic like any other; out-edge credits that accrued between the
	// snapshot and now are flushed as a delta so nothing is lost to the
	// dead half's stopped relay queue.
	type grant struct {
		edge uint32
		n    uint64
	}
	var grants []grant
	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		h2.retire("session ended during recovery")
		return errSessionEnded
	}
	ps.halves[idx] = h2
	for i := range ps.plan.Cuts {
		c := &ps.plan.Cuts[i]
		if c.From != idx {
			continue
		}
		if delta := ps.cuts[i].acked - marks[c.ID].ackedAt; delta > 0 {
			grants = append(grants, grant{edge: c.ID, n: delta})
		}
	}
	ps.mu.Unlock()
	go h2.relay()
	for _, g := range grants {
		h2.enqueueRelay(&wire.EdgeCredit{SID: h2.sid, Edge: g.edge, N: uint32(g.n)})
	}

	// Replay the feed history and each inbound cut edge concurrently:
	// they are independent in-order streams, each paced by its own
	// credit returns, and the partition may need both to make progress.
	errc := make(chan error, len(inEdges)+1)
	go func() { errc <- ps.replayFeeds(h2, feedTotal, deadline) }()
	for _, ei := range inEdges {
		ei := ei
		go func() { errc <- ps.replayEdge(h2, ei, deadline) }()
	}
	var firstErr error
	for i := 0; i < len(inEdges)+1; i++ {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		if !errors.Is(firstErr, errSessionEnded) {
			h2.retire("partition recovery attempt failed")
		}
		return firstErr
	}

	ps.mu.Lock()
	if ps.ended {
		ps.mu.Unlock()
		return errSessionEnded
	}
	ps.recovering = false
	ps.lastProgress = time.Now()
	closeSent := ps.closeSent
	ps.mu.Unlock()
	if closeSent {
		// The client's Close raced the recovery; sendClose skipped this
		// partition, so deliver the deferred close now that the replay
		// is on the wire.
		ps.sendMu.Lock()
		if err := h2.conn.Write(&wire.CloseSession{SID: h2.sid}); err != nil {
			h2.conn.Close()
		}
		ps.sendMu.Unlock()
	}
	return nil
}

// retire tears a failed replacement half out of its worker: the relay
// stops (queued items release), the instance is aborted, and the sid
// unregisters so nothing routes to it again.
func (h *partitionHalf) retire(reason string) {
	h.stopRelay()
	h.conn.Write(&wire.Error{SID: h.sid, Msg: reason})
	h.w.unregister(h.conn, h.sid)
}

// replayFeeds re-delivers the session's feed history to a reopened
// partition that owns input nodes, paced like the worker's queue:
// maxInFlight frames up front, extended by each frame the fresh
// instance reports back as a result or credit (h2.credits counts only
// those — it starts at zero).
func (ps *partitionedSession) replayFeeds(h2 *partitionHalf, total int64, deadline time.Time) error {
	owns := false
	for _, idx := range ps.feedParts {
		if idx == h2.idx {
			owns = true
		}
	}
	if !owns {
		return nil
	}
	for seq := int64(0); seq < total; {
		ps.mu.Lock()
		if ps.ended {
			ps.mu.Unlock()
			return errSessionEnded
		}
		if ps.logFull {
			ps.mu.Unlock()
			return fmt.Errorf("cluster: replay log released during recovery")
		}
		if seq >= int64(ps.maxInFlight)+h2.credits {
			ps.mu.Unlock()
			if err := h2.waitLive(deadline, "feed replay"); err != nil {
				return err
			}
			continue
		}
		m := &wire.Feed{SID: h2.sid, Seq: seq}
		for _, in := range ps.feedLog[seq].inputs {
			if ps.inputOwner[in.Name] != h2.idx {
				continue
			}
			in.Win.Retain(1)
			m.Inputs = append(m.Inputs, in)
		}
		ps.mu.Unlock()
		err := h2.conn.Write(m)
		for _, in := range m.Inputs {
			in.Win.Release()
		}
		if err != nil {
			h2.conn.Close()
			return fmt.Errorf("cluster: feed replay to %s: %w", h2.w.addr, err)
		}
		h2.w.framesRouted.Add(1)
		ps.d.framesReplayed.Add(1)
		seq++
	}
	return nil
}

// replayEdge re-delivers one inbound cut edge's logged items to the
// reopened consumer, then flips the edge back to live relay. The flip
// fires only when the log is exhausted AND the swallow debt is zero:
// at that point the producer's credit window and the new consumer's
// queue agree, so direct relay cannot overflow it.
func (ps *partitionedSession) replayEdge(h2 *partitionHalf, ei int, deadline time.Time) error {
	c := ps.plan.Cuts[ei]
	ps.mu.Lock()
	window := uint64(c.Credit)
	base := ps.cuts[ei].rawAcks // acks from the fresh instance count from here
	ps.mu.Unlock()
	pos := uint64(0)
	for {
		ps.mu.Lock()
		if ps.ended {
			ps.mu.Unlock()
			return errSessionEnded
		}
		if ps.logFull {
			ps.mu.Unlock()
			return fmt.Errorf("cluster: replay log released during recovery")
		}
		es := &ps.cuts[ei]
		allowed := window + (es.rawAcks - base)
		end := uint64(len(es.log))
		if end > allowed {
			end = allowed
		}
		if end > pos+edgeBatchItems {
			end = pos + edgeBatchItems
		}
		if end > pos {
			batch := make([]wire.Item, end-pos)
			copy(batch, es.log[pos:end])
			for _, it := range batch {
				if !it.IsToken {
					it.Win.Retain(1)
				}
			}
			es.sent = end
			ps.mu.Unlock()
			err := h2.conn.Write(&wire.EdgeFrame{SID: h2.sid, Edge: c.ID, Items: batch})
			releaseWireItems(batch)
			if err != nil {
				h2.conn.Close()
				return fmt.Errorf("cluster: edge %d replay to %s: %w", c.ID, h2.w.addr, err)
			}
			pos = end
			continue
		}
		if pos == uint64(len(es.log)) && es.swallow == 0 {
			// Caught up: every logged item re-delivered, every stale ack
			// absorbed. Flip to direct relay atomically with the last
			// replayed write already on the wire — the producer's read
			// loop sees buffering false only after this unlock.
			es.buffering = false
			sendEOS := es.eosLogged && !es.eosSent
			if sendEOS {
				es.eosSent = true
			}
			ps.mu.Unlock()
			if sendEOS {
				if err := h2.conn.Write(&wire.EdgeFrame{SID: h2.sid, Edge: c.ID, EOS: true}); err != nil {
					h2.conn.Close()
					return fmt.Errorf("cluster: edge %d replay to %s: %w", c.ID, h2.w.addr, err)
				}
			}
			return nil
		}
		ps.mu.Unlock()
		if err := h2.waitLive(deadline, fmt.Sprintf("edge %d replay", c.ID)); err != nil {
			return err
		}
	}
}

// waitLive sleeps one pacing tick, failing fast when the replacement's
// connection died under the replay or the recovery deadline passed.
func (h *partitionHalf) waitLive(deadline time.Time, what string) error {
	h.w.mu.Lock()
	alive := h.w.conn == h.conn
	h.w.mu.Unlock()
	if !alive {
		return fmt.Errorf("cluster: worker %s lost during %s", h.w.addr, what)
	}
	if time.Now().After(deadline) {
		return fmt.Errorf("cluster: %s to %s stalled past the failover window", what, h.w.addr)
	}
	time.Sleep(time.Millisecond)
	return nil
}
