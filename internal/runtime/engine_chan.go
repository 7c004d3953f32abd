package runtime

import (
	"fmt"
	"sync"

	"blockpar/internal/graph"
)

// chanEngine is the default scheduling engine: one goroutine per node,
// buffered channels as the stream FIFOs. Channel capacity provides the
// pipeline's elasticity and backpressure; a node blocked on a full
// downstream inbox simply parks its goroutine.
type chanEngine struct {
	ex *executor

	inboxes map[*graph.Node]chan inMsg
	// producersLeft counts open producers per consumer node; the inbox
	// closes when it reaches zero.
	mu            sync.Mutex
	producersLeft map[*graph.Node]int
}

func newChanEngine(ex *executor) *chanEngine {
	eng := &chanEngine{
		ex:            ex,
		inboxes:       make(map[*graph.Node]chan inMsg),
		producersLeft: make(map[*graph.Node]int),
	}
	for _, n := range ex.g.Nodes() {
		if n.Kind == graph.KindInput {
			continue
		}
		eng.inboxes[n] = make(chan inMsg, ex.inboxCap)
		producers := make(map[*graph.Node]bool)
		for _, e := range ex.g.InEdges(n) {
			producers[e.From.Node()] = true
		}
		eng.producersLeft[n] = len(producers)
	}
	return eng
}

// start launches one goroutine per node and returns a channel closed
// when all of them have exited.
func (eng *chanEngine) start() chan struct{} {
	ex := eng.ex
	for _, n := range ex.g.Nodes() {
		n := n
		ex.wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					ex.fail(fmt.Errorf("node %q panicked: %v", n.Name(), r))
				}
				// This node will produce nothing more: release consumers.
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
	done := make(chan struct{})
	go func() {
		ex.wg.Wait()
		eng.sweep()
		close(done)
	}()
	return done
}

// sweep releases items abandoned in the inboxes. A completed stream
// leaves them empty; a truncated one (hard stop, or a partition whose
// peer died mid-frame) strands items no consumer will ever take, and
// their windows must go back to the arena. Runs after every node
// goroutine has exited, so nothing is delivering concurrently.
func (eng *chanEngine) sweep() {
	for _, inbox := range eng.inboxes {
	drain:
		for {
			select {
			case m, ok := <-inbox:
				if !ok {
					break drain
				}
				if !m.item.IsToken {
					m.item.Win.Release()
				}
			default:
				break drain
			}
		}
	}
}

// producerDone decrements the consumer's open-producer count, closing
// its inbox at zero. Each producer node calls it once per distinct
// consumer.
func (eng *chanEngine) producerDone(consumer *graph.Node) {
	eng.mu.Lock()
	defer eng.mu.Unlock()
	eng.producersLeft[consumer]--
	if eng.producersLeft[consumer] == 0 {
		close(eng.inboxes[consumer])
	}
}

func (eng *chanEngine) deliver(e *graph.Edge, it graph.Item) {
	inbox := eng.inboxes[e.To.Node()]
	select {
	case inbox <- inMsg{input: e.To.Name, item: it}:
	case <-eng.ex.stop:
		// The delivery is dropped; its window reference comes with it.
		if !it.IsToken {
			it.Win.Release()
		}
	}
}

func (eng *chanEngine) recv(n *graph.Node) (inMsg, bool) {
	select {
	case msg, ok := <-eng.inboxes[n]:
		return msg, ok
	case <-eng.ex.stop:
		// Drain without blocking so producers can finish.
		select {
		case msg, ok := <-eng.inboxes[n]:
			return msg, ok
		default:
			return inMsg{}, false
		}
	}
}

// stopNotify is a no-op: every chanEngine block point selects on the
// stop channel already.
func (eng *chanEngine) stopNotify() {}
