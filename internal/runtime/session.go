package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
)

// Session errors. ErrQueueFull is the backpressure signal: the caller
// fed more frames than MaxInFlight without collecting their results.
var (
	ErrSessionClosed = errors.New("runtime: session closed")
	ErrQueueFull     = errors.New("runtime: session frame queue full")
	// ErrBadFrame wraps caller mistakes (unknown input, wrong frame
	// dimensions) so transports can distinguish them from execution
	// failures.
	ErrBadFrame = errors.New("runtime: bad frame")
	// ErrCollectTimeout is wrapped by a Collect whose timeout expired
	// before the next frame completed; the session itself is unharmed.
	ErrCollectTimeout = errors.New("runtime: session collect timed out")
)

// SessionOptions configures a streaming session.
type SessionOptions struct {
	// MaxInFlight bounds the frames fed but not yet collected; TryFeed
	// fails with ErrQueueFull at the bound (default 4).
	MaxInFlight int
	// Sources provides frames for inputs the caller does not supply to
	// Feed (coefficient and bin inputs, typically). Inputs without an
	// entry fall back to frame.Gradient, like the batch runtime.
	Sources map[string]frame.Generator
	// Executor selects the scheduling engine (see Options.Executor).
	Executor ExecutorKind
	// Workers sizes the ExecWorkers pool (default GOMAXPROCS).
	Workers int
}

// StreamResult is the output of one completed frame: for every
// application output, the data windows it produced for that frame, in
// stream order.
type StreamResult struct {
	// Seq is the frame index, counted from zero per session.
	Seq     int64
	Outputs map[string][]frame.Window
	// tokens holds each output's control tokens for Run; nil in a
	// session.
	tokens map[string][]tokenAt
}

// Session is a long-lived streaming execution instance of a graph: the
// kernel goroutines stay resident between frames, frames are fed one at
// a time, and each frame's outputs are flushed deterministically on its
// end-of-frame tokens. A session over a compiled graph produces
// byte-identical per-frame outputs to the batch Run with the same
// sources, because inputs chunk frames with the same scan order and
// token numbering.
//
// Feed and Collect may run on different goroutines (feed-ahead up to
// MaxInFlight frames); Feed itself must not be called concurrently
// with another Feed. Kernel panics are recovered and surface as the
// session error instead of crashing the process.
type Session struct {
	g    *graph.Graph
	ex   *executor
	done chan struct{}

	mu        sync.Mutex // guards closed, fed, and the feed sends
	closed    bool
	fed       int64
	collected atomic.Int64
}

// NewSession validates the graph, spins up its kernel goroutines, and
// returns a handle ready to accept frames.
func NewSession(g *graph.Graph, opts SessionOptions) (*Session, error) {
	return newSession(g, opts, false)
}

// newSession starts a session whose results carry their control tokens
// when keepTokens is set (Run's exact item streams).
func newSession(g *graph.Graph, opts SessionOptions, keepTokens bool) (*Session, error) {
	ex, err := newExecutor(g, opts)
	if err != nil {
		return nil, err
	}
	ex.keepTokens = keepTokens
	s := &Session{g: g, ex: ex}
	s.done = ex.start()
	return s, nil
}

// Feed enqueues one frame: the supplied window per input node, falling
// back to the session Sources (then frame.Gradient) for absent inputs.
// It returns the frame's index. Feed blocks while the pipeline is full;
// use TryFeed for the non-blocking backpressure variant.
//
// Feed takes ownership of pooled input windows (the cluster transport
// feeds arena-decoded frames): the pipeline releases their storage
// once every chunk has been consumed. Fed windows must stay immutable
// while their frame is in flight.
func (s *Session) Feed(inputs map[string]frame.Window) (int64, error) {
	return s.feed(inputs, true)
}

// TryFeed is Feed without blocking: when MaxInFlight frames are already
// fed but uncollected it fails fast with ErrQueueFull.
func (s *Session) TryFeed(inputs map[string]frame.Window) (int64, error) {
	return s.feed(inputs, false)
}

func (s *Session) feed(inputs map[string]frame.Window, block bool) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrSessionClosed
	}
	if err := s.ex.runErr(); err != nil {
		return 0, err
	}
	if !block && s.fed-s.collected.Load() >= int64(s.ex.opts.MaxInFlight) {
		return 0, ErrQueueFull
	}
	for name := range inputs {
		if n := s.g.Node(name); n == nil || n.Kind != graph.KindInput {
			return 0, fmt.Errorf("%w: unknown input %q", ErrBadFrame, name)
		}
	}
	// Resolve and validate every window before sending anything, so a
	// bad frame never leaves the pipeline partially fed.
	f := s.fed
	ins := s.g.Inputs()
	wins := make([]frame.Window, len(ins))
	for i, n := range ins {
		w, ok := inputs[n.Name()]
		if !ok {
			gen := s.ex.opts.Sources[n.Name()]
			if gen == nil {
				gen = frame.Gradient
			}
			w = gen(f, n.FrameSize.W, n.FrameSize.H)
		}
		if w.W != n.FrameSize.W || w.H != n.FrameSize.H {
			return 0, fmt.Errorf("%w: input %q is %dx%d, want %dx%d",
				ErrBadFrame, n.Name(), w.W, w.H, n.FrameSize.W, n.FrameSize.H)
		}
		if want := n.Output("out").Elem; w.Kind != want {
			return 0, fmt.Errorf("%w: input %q carries %s samples, declared %s",
				ErrBadFrame, n.Name(), w.Kind, want)
		}
		wins[i] = w
	}
	for i, n := range ins {
		select {
		case s.ex.feeds[n] <- wins[i]:
		case <-s.ex.stop:
			return 0, s.failErr()
		}
	}
	s.fed++
	return f, nil
}

// Collect blocks until the next frame's outputs are complete and
// returns them in frame order. A timeout of zero waits indefinitely; an
// expired timeout returns an error wrapping ErrCollectTimeout. After
// Close, Collect drains any remaining completed frames and then fails
// with ErrSessionClosed.
func (s *Session) Collect(timeout time.Duration) (*StreamResult, error) {
	var tc <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		tc = t.C
	}
	res, err := s.next(tc)
	if errors.Is(err, ErrCollectTimeout) {
		return nil, fmt.Errorf("%w after %v", ErrCollectTimeout, timeout)
	}
	return res, err
}

// next is Collect with the deadline as a channel: it returns
// ErrCollectTimeout itself once tc fires.
func (s *Session) next(tc <-chan time.Time) (*StreamResult, error) {
	select {
	case res := <-s.ex.ready:
		s.collected.Add(1)
		return &res, nil
	case <-tc:
		return nil, ErrCollectTimeout
	case <-s.ex.stop:
	case <-s.done:
	}
	// A completed frame may have raced with the end of the run; prefer it.
	select {
	case res := <-s.ex.ready:
		s.collected.Add(1)
		return &res, nil
	default:
	}
	return nil, s.failErr()
}

// Fed returns the number of frames accepted so far.
func (s *Session) Fed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fed
}

// Completed returns the number of frames whose outputs finished
// (collected or still waiting in the result queue).
func (s *Session) Completed() int64 {
	s.ex.outMu.Lock()
	defer s.ex.outMu.Unlock()
	return s.ex.flushed
}

// InFlight returns the frames fed but not yet collected.
func (s *Session) InFlight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fed - s.collected.Load()
}

// Err returns the session's failure, or nil while it is healthy.
func (s *Session) Err() error { return s.ex.runErr() }

// Close stops the inputs and drains the pipeline: every fed frame is
// still processed to completion (uncollected results are discarded),
// then all kernel goroutines exit. It returns the first execution
// error, if any. Close is idempotent.
func (s *Session) Close() error {
	s.Finish()
	for {
		select {
		case <-s.done:
			// The feed channels are closed and the input goroutines are
			// gone; windows still buffered there (a hard stop can leave
			// them behind) go back to the arena.
			for _, ch := range s.ex.feeds {
				for w := range ch {
					w.Release()
				}
			}
			for {
				select {
				case <-s.ex.ready:
					s.collected.Add(1)
				default:
					return s.ex.runErr()
				}
			}
		case <-s.ex.ready:
			s.collected.Add(1)
		}
	}
}

// Finish stops accepting frames but does not wait or drain: the
// inputs see end-of-stream and the pipeline winds down on its own,
// with completed results still collectable. A partition transport uses
// it so a collector goroutine can keep draining results while the
// partition's boundary edges flush; plain Close would race it for the
// ready queue and discard frames. Close after Finish is still required
// to reap the session.
func (s *Session) Finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.ex.closeFeeds(s.fed)
	}
}

// Abort kills the session immediately with err: every kernel stops at
// its next channel operation, in-flight frames are dropped, and Close
// returns promptly. Used when a partitioned session loses a peer and
// waiting for a natural end-of-stream could block forever.
func (s *Session) Abort(err error) {
	if err == nil {
		err = ErrSessionClosed
	}
	s.ex.fail(err)
}

// failErr is the error of a session that has stopped: its execution
// failure, or ErrSessionClosed when it ended cleanly.
func (s *Session) failErr() error {
	if err := s.ex.runErr(); err != nil {
		return err
	}
	return ErrSessionClosed
}
