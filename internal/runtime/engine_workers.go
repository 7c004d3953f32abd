package runtime

import (
	"fmt"
	"sync"

	"blockpar/internal/graph"
)

// workerEngine is the worker-pool scheduling engine: a fixed set of N
// workers runs ready kernel firings to completion from a shared ready
// queue, decoupling the graph's logical kernel instances from physical
// parallelism (the software analog of the paper's many-kernels-per-PE
// mapping, and the shape SIMD/OpenCL ports of block-parallel programs
// take — see ISSUE references).
//
// Transport is a per-node mailbox (mutex + slice). A pool task never
// blocks mid-firing — a full downstream box must not stall a worker —
// but dedicated producer goroutines (inputs, stream-FSM runners) block
// once a mailbox holds the executor's inbox capacity, mirroring the channel
// engine's backpressure so a fast input cannot materialize a whole
// frame of live windows ahead of its consumers. Invoker kernels are
// pure event-driven state machines: a delivery marks the kernel ready,
// and a worker later drains its mailbox and fires methods until
// quiescent. Stream-FSM runners, inputs, and outputs keep dedicated
// goroutines — they are I/O pumps written in blocking style, not
// bounded firings — and block on their mailbox's condition variable.
type workerEngine struct {
	ex      *executor
	workers int
	cap     int

	boxes map[*graph.Node]*mailbox
	tasks map[*graph.Node]*workerTask

	// readyq carries schedulable kernel tasks; capacity is the task
	// count and the scheduled flag guarantees at most one entry per
	// task, so sends never block.
	readyq chan *workerTask

	// tasksLeft counts unfinished kernel tasks (guarded by taskMu);
	// when it reaches zero the ready queue closes and workers exit.
	taskMu    sync.Mutex
	tasksLeft int
}

// mailbox is one consumer node's inbox: a FIFO over a reused backing
// array (head marks the consumed prefix) plus the producer accounting
// that closes it. cond wakes consumers on data or close; space wakes
// dedicated producers blocked on a full box.
type mailbox struct {
	mu            sync.Mutex
	cond          *sync.Cond
	space         *sync.Cond
	q             []inMsg
	head          int
	producersLeft int
	closed        bool
}

func (b *mailbox) pending() int { return len(b.q) - b.head }

// workerTask is the scheduling state of one Invoker kernel node.
// scheduled and again are guarded by the node's mailbox mutex:
// scheduled means the task is in the ready queue or running; again
// records work that arrived while it was.
type workerTask struct {
	node      *graph.Node
	d         *driver
	box       *mailbox
	scheduled bool
	again     bool
	finished  bool
}

func newWorkerEngine(ex *executor, workers int) *workerEngine {
	eng := &workerEngine{
		ex:      ex,
		workers: workers,
		cap:     ex.inboxCap,
		boxes:   make(map[*graph.Node]*mailbox),
		tasks:   make(map[*graph.Node]*workerTask),
	}
	for _, n := range ex.g.Nodes() {
		if n.Kind == graph.KindInput {
			continue
		}
		producers := make(map[*graph.Node]bool)
		for _, e := range ex.g.InEdges(n) {
			producers[e.From.Node()] = true
		}
		box := &mailbox{producersLeft: len(producers)}
		box.cond = sync.NewCond(&box.mu)
		box.space = sync.NewCond(&box.mu)
		box.closed = len(producers) == 0
		eng.boxes[n] = box
	}
	return eng
}

// poolScheduled reports whether n runs as a pool task (an Invoker
// kernel) rather than on a dedicated goroutine.
func poolScheduled(n *graph.Node) bool {
	if n.Kind == graph.KindInput || n.Kind == graph.KindOutput {
		return false
	}
	if _, ok := graph.RunnerBehavior(n); ok {
		return false
	}
	_, ok := n.Behavior.(graph.Invoker)
	return ok
}

func (eng *workerEngine) start() chan struct{} {
	ex := eng.ex
	// Wire the kernel tasks first so deliveries from the earliest
	// goroutines find them.
	for _, n := range ex.g.Nodes() {
		if !poolScheduled(n) {
			continue
		}
		inv := n.Behavior.(graph.Invoker)
		t := &workerTask{node: n, d: newDriver(ex, n, inv), box: eng.boxes[n]}
		eng.tasks[n] = t
	}
	eng.tasksLeft = len(eng.tasks)
	eng.readyq = make(chan *workerTask, len(eng.tasks)+1)
	if len(eng.tasks) == 0 {
		close(eng.readyq)
	}

	// Dedicated goroutines: inputs, outputs, stream-FSM runners.
	for _, n := range ex.g.Nodes() {
		if poolScheduled(n) {
			continue
		}
		n := n
		ex.wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					ex.fail(fmt.Errorf("node %q panicked: %v", n.Name(), r))
				}
				for _, consumer := range ex.downstreamConsumers(n) {
					eng.producerDone(consumer)
				}
				ex.wg.Done()
			}()
			if err := ex.runNode(n); err != nil && err != graph.ErrHalt {
				ex.fail(fmt.Errorf("node %q: %w", n.Name(), err))
			}
		}()
	}
	// Kernel tasks whose mailbox starts closed (no producers — an
	// empty-trigger corner Validate normally rejects) must still get
	// one run to finish and release their own consumers.
	for _, t := range eng.tasks {
		t.box.mu.Lock()
		if t.box.closed && !t.scheduled {
			t.scheduled = true
			eng.readyq <- t
		}
		t.box.mu.Unlock()
	}

	for i := 0; i < eng.workers; i++ {
		ex.wg.Add(1)
		go eng.worker()
	}
	done := make(chan struct{})
	go func() {
		ex.wg.Wait()
		eng.sweep()
		close(done)
	}()
	return done
}

// sweep releases items abandoned in the mailboxes (see
// chanEngine.sweep). Runs after every worker and dedicated goroutine
// has exited, so no deliveries race it.
func (eng *workerEngine) sweep() {
	for _, box := range eng.boxes {
		box.mu.Lock()
		q := box.q[box.head:]
		box.q, box.head = nil, 0
		box.mu.Unlock()
		for _, m := range q {
			if !m.item.IsToken {
				m.item.Win.Release()
			}
		}
	}
}

func (eng *workerEngine) worker() {
	defer eng.ex.wg.Done()
	for {
		select {
		case t, ok := <-eng.readyq:
			if !ok {
				return
			}
			eng.runTask(t)
		case <-eng.ex.stop:
			return
		}
	}
}

// runTask drains the task's mailbox and fires methods until the kernel
// is quiescent, then either reschedules (more work arrived meanwhile),
// parks, or finishes (all producers closed and nothing left to fire).
func (eng *workerEngine) runTask(t *workerTask) {
	ex := eng.ex
	for {
		if ex.stopping() {
			eng.finishTask(t)
			return
		}
		t.box.mu.Lock()
		msgs := t.box.q[t.box.head:]
		t.box.q = nil
		t.box.head = 0
		closed := t.box.closed
		t.again = false
		t.box.space.Broadcast()
		t.box.mu.Unlock()

		err := eng.stepTask(t, msgs)
		if err != nil {
			if err != graph.ErrHalt {
				ex.fail(fmt.Errorf("node %q: %w", t.node.Name(), err))
			}
			eng.finishTask(t)
			return
		}

		t.box.mu.Lock()
		if t.box.q == nil {
			// Nothing arrived while firing: hand the drained batch's
			// storage back so the steady-state drain/park cycle stops
			// allocating.
			for i := range msgs {
				msgs[i] = inMsg{}
			}
			t.box.q = msgs[:0]
		}
		if t.again {
			t.box.mu.Unlock()
			continue
		}
		if closed && len(t.box.q) == 0 {
			t.box.mu.Unlock()
			eng.finishTask(t)
			return
		}
		t.scheduled = false
		t.box.mu.Unlock()
		return
	}
}

// stepTask feeds one drained batch to the driver, converting kernel
// panics into run failures like the goroutine engine does.
func (eng *workerEngine) stepTask(t *workerTask, msgs []inMsg) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	return t.d.step(msgs)
}

// finishTask retires a kernel task exactly once: downstream consumers
// lose a producer, and when the last task retires the ready queue
// closes so idle workers exit.
func (eng *workerEngine) finishTask(t *workerTask) {
	t.box.mu.Lock()
	if t.finished {
		t.box.mu.Unlock()
		return
	}
	t.finished = true
	t.scheduled = false
	t.box.mu.Unlock()
	t.d.releaseQueues()
	for _, consumer := range eng.ex.downstreamConsumers(t.node) {
		eng.producerDone(consumer)
	}
	eng.taskMu.Lock()
	eng.tasksLeft--
	last := eng.tasksLeft == 0
	eng.taskMu.Unlock()
	if last {
		close(eng.readyq)
	}
}

// schedule marks a task runnable after a mailbox event. Must be called
// with the task's mailbox mutex held.
func (eng *workerEngine) schedule(t *workerTask) {
	if t.finished {
		return
	}
	if t.scheduled {
		t.again = true
		return
	}
	t.scheduled = true
	eng.readyq <- t
}

func (eng *workerEngine) producerDone(consumer *graph.Node) {
	box := eng.boxes[consumer]
	box.mu.Lock()
	box.producersLeft--
	if box.producersLeft == 0 {
		box.closed = true
		box.cond.Broadcast()
		if t := eng.tasks[consumer]; t != nil {
			eng.schedule(t)
		}
	}
	box.mu.Unlock()
}

func (eng *workerEngine) deliver(e *graph.Edge, it graph.Item) {
	if eng.ex.stopping() {
		if !it.IsToken {
			it.Win.Release()
		}
		return
	}
	n := e.To.Node()
	box := eng.boxes[n]
	box.mu.Lock()
	// Only dedicated-goroutine producers honor the bound: a pool task
	// blocking here could stall every worker on a box only a worker
	// can drain.
	if !poolScheduled(e.From.Node()) {
		for box.pending() >= eng.cap && !eng.ex.stopping() {
			box.space.Wait()
		}
		if eng.ex.stopping() {
			box.mu.Unlock()
			if !it.IsToken {
				it.Win.Release()
			}
			return
		}
	}
	box.q = append(box.q, inMsg{input: e.To.Name, item: it})
	if t := eng.tasks[n]; t != nil {
		eng.schedule(t)
	} else {
		box.cond.Signal()
	}
	box.mu.Unlock()
}

// recv blocks on the node's mailbox; only dedicated-goroutine nodes
// (runners, outputs) call it.
func (eng *workerEngine) recv(n *graph.Node) (inMsg, bool) {
	box := eng.boxes[n]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		if box.head < len(box.q) {
			m := box.q[box.head]
			box.q[box.head] = inMsg{}
			box.head++
			if box.head == len(box.q) {
				box.q = box.q[:0]
				box.head = 0
			}
			box.space.Signal()
			return m, true
		}
		if box.closed || eng.ex.stopping() {
			return inMsg{}, false
		}
		box.cond.Wait()
	}
}

// stopNotify wakes every mailbox waiter so blocked runners and outputs
// observe the stop.
func (eng *workerEngine) stopNotify() {
	for _, box := range eng.boxes {
		box.mu.Lock()
		box.cond.Broadcast()
		box.space.Broadcast()
		box.mu.Unlock()
	}
}
