// Package runtime executes block-parallel application graphs
// functionally: kernel instances exchange items over stream FIFOs with
// control tokens in-band. It is the semantic reference for the system —
// every compiler transformation is verified by running the transformed
// graph here and comparing with the untransformed golden output
// (DESIGN.md §5).
//
// Two execution styles exist, mirroring graph.Behavior:
//
//   - Invoker kernels are driven by the generic method-trigger loop:
//     a method fires when every trigger input's queue head matches
//     (data for data triggers, the right token for token triggers).
//     Unhandled control tokens are forwarded in order to the outputs of
//     the methods fed by that input, once the token has arrived on all
//     of those methods' data inputs (paper §II-C).
//   - Runner kernels (buffers, splits, joins, insets, pads, feedback)
//     drive their own stream FSM.
//
// Replicated inputs act as a configuration barrier: a kernel's data
// methods do not fire until every replicated input has delivered at
// least one item, making coefficient/bin loading deterministic.
//
// There is one execution mode, the streaming Session: input nodes chunk
// each fed frame in scan order with EOL/EOF tokens in-band (§II-C),
// output nodes assemble one result per frame on its end-of-frame
// tokens, and a kernel panic is recovered into the run's error. Run is
// a driver over a Session fed Options.Frames generated frames. A run
// ends when its feeds close and the graph drains; a graph holding a
// feedback loop (§III-D) cannot drain, because the loop kernel waits on
// its own output, so it also stops once every fed frame is assembled.
//
// The scheduling engine is pluggable (Options.Executor): the default
// engine runs one goroutine per node with channels as the FIFOs; the
// worker-pool engine runs ready kernel firings to completion on a
// fixed set of workers, decoupling logical kernels from OS-level
// parallelism the way the paper decouples kernels from PEs.
//
// Items follow the zero-copy ownership protocol of internal/frame:
// windows travel as stride-aware views over pooled storage, the sender
// retains one reference per consumer at fan-out, and the engine
// releases a kernel's data inputs after each firing. Results are
// compacted into slab storage so callers never pin pool buffers.
package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// ExecutorKind selects the scheduling engine for a run or session.
type ExecutorKind string

const (
	// ExecGoroutines is the default engine: one goroutine per node,
	// channels as the stream FIFOs.
	ExecGoroutines ExecutorKind = "goroutines"
	// ExecWorkers is the worker-pool engine: a fixed set of workers
	// (Options.Workers, default GOMAXPROCS) runs ready kernel firings
	// to completion from a shared ready queue.
	ExecWorkers ExecutorKind = "workers"
)

// Options configures a functional run.
type Options struct {
	// Frames is how many input frames to generate (default 1).
	Frames int
	// Timeout aborts the run if the outputs have not completed within
	// this wall-clock duration — a watchdog against misbehaving custom
	// kernels deadlocking the pipeline. Zero means no watchdog.
	Timeout time.Duration
	// Sources maps application input node names to frame generators.
	// Inputs without an entry produce frame.Gradient frames.
	Sources map[string]frame.Generator
	// Executor selects the scheduling engine; empty means
	// ExecGoroutines.
	Executor ExecutorKind
	// Workers sizes the ExecWorkers pool (default GOMAXPROCS); ignored
	// by other engines.
	Workers int
}

// Result holds everything the application outputs produced.
type Result struct {
	// Outputs maps output node name to the full item stream received,
	// tokens included, in arrival order.
	Outputs map[string][]graph.Item
	// Firings counts method invocations per kernel (generic Invoker
	// kernels only; FSM runners drive their own loops). Used to
	// cross-check the data-flow analysis' predicted iteration counts
	// against actual execution.
	Firings map[string]map[string]int64
}

// DataWindows returns just the data windows received by the named
// output, in order.
func (r *Result) DataWindows(output string) []frame.Window {
	var out []frame.Window
	for _, it := range r.Outputs[output] {
		if !it.IsToken {
			out = append(out, it.Win)
		}
	}
	return out
}

// FrameSlices splits the named output's data windows into per-frame
// groups using the end-of-frame tokens.
func (r *Result) FrameSlices(output string) [][]frame.Window {
	var frames [][]frame.Window
	var cur []frame.Window
	for _, it := range r.Outputs[output] {
		if it.IsToken {
			if it.Tok.Kind == token.EndOfFrame {
				frames = append(frames, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, it.Win)
	}
	if len(cur) > 0 {
		frames = append(frames, cur)
	}
	return frames
}

// inMsg is one delivery into a node's inbox.
type inMsg struct {
	input string
	item  graph.Item
}

// engine is the scheduling abstraction behind a run: it owns the
// transport between nodes and decides what executes where. The
// executor owns the graph-level semantics (input chunking, output
// collection, firing counts, errors) and delegates movement to the
// engine.
type engine interface {
	// start launches execution and returns a channel closed when every
	// node has finished.
	start() chan struct{}
	// deliver moves one item along one edge. It must not block
	// indefinitely once the run is stopping.
	deliver(e *graph.Edge, it graph.Item)
	// recv blocks for the next delivery to node n; ok is false when
	// all producers have closed and the inbox is drained, or the run
	// is stopping.
	recv(n *graph.Node) (inMsg, bool)
	// stopNotify wakes anything blocked outside channel selects; it is
	// called exactly once, after the stop channel closes.
	stopNotify()
}

// executor holds the shared state of one run, independent of engine.
type executor struct {
	g    *graph.Graph
	opts SessionOptions
	eng  engine

	// inboxCap bounds each node's inbox: four input rows of per-sample
	// slack, generous enough to absorb the pipeline skew of windowed
	// diamonds. Row batching cut the physical item count per row to O(1)
	// on batch-aware edges, so deeper buffers would only pay allocation
	// and GC-scan cost.
	inboxCap int

	// edgesFrom caches the per-port fan-out so the send path does not
	// allocate.
	edgesFrom map[*graph.Port][]*graph.Edge
	// batchOK records, per edge, whether the consumer accepts row
	// batches; the send path splits batches into logical view items for
	// every edge where it is false, so non-batch-aware kernels (and the
	// wire transport behind boundary sinks) observe the exact scalar
	// stream they always did.
	batchOK map[*graph.Edge]bool

	stop     chan struct{}
	stopOnce sync.Once

	errMu sync.Mutex
	err   error

	fireMu  sync.Mutex
	firings map[string]map[string]int64

	// Frames enter through feeds (one channel per input node) and leave
	// through ready, one assembled result per frame.
	feeds map[*graph.Node]chan frame.Window
	ready chan StreamResult
	// keepTokens makes the outputs record every frame's control tokens
	// beside its windows, so Run can return the exact item stream.
	// Sessions deliver data windows only and skip the bookkeeping.
	keepTokens bool
	// feedback marks a graph holding a KindFeedback node: such a run
	// never drains on its own and stops once every fed frame is flushed.
	feedback bool

	// Frame assembly (guarded by outMu). doneFrames queues the frames an
	// output has finished until every output has; seq numbers assembled
	// frames; flushed counts frames handed to ready; fedTotal is the
	// final number of fed frames once the feeds close (-1 before).
	outMu      sync.Mutex
	slab       slabAlloc
	doneFrames map[string][]frameOut
	seq        int64
	flushed    int64
	fedTotal   int64

	wg sync.WaitGroup
}

// frameOut is one output's share of one frame: its data windows and,
// when the executor keeps tokens, its control tokens in arrival order.
type frameOut struct {
	wins []frame.Window
	toks []tokenAt
}

// tokenAt is one control token of a frame and the number of the
// frame's data windows that arrived before it.
type tokenAt struct {
	pos int
	tok token.Token
}

// newExecutor validates the graph and wires the engine.
func newExecutor(g *graph.Graph, opts SessionOptions) (*executor, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: invalid graph: %w", err)
	}
	maxW := 64
	for _, n := range g.Inputs() {
		chunk := n.Output("out").Size
		if n.FrameSize.W%chunk.W != 0 || n.FrameSize.H%chunk.H != 0 {
			return nil, fmt.Errorf("runtime: input %q frame %v not divisible by chunk %v",
				n.Name(), n.FrameSize, chunk)
		}
		maxW = max(maxW, n.FrameSize.W)
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = goruntime.GOMAXPROCS(0)
	}

	ex := &executor{
		g:          g,
		opts:       opts,
		inboxCap:   4 * maxW,
		edgesFrom:  make(map[*graph.Port][]*graph.Edge),
		batchOK:    make(map[*graph.Edge]bool),
		stop:       make(chan struct{}),
		firings:    make(map[string]map[string]int64),
		feeds:      make(map[*graph.Node]chan frame.Window),
		ready:      make(chan StreamResult, opts.MaxInFlight),
		doneFrames: make(map[string][]frameOut),
		fedTotal:   -1,
	}
	for _, n := range g.Nodes() {
		ex.feedback = ex.feedback || n.Kind == graph.KindFeedback
		for _, p := range n.Outputs() {
			edges := g.EdgesFrom(p)
			ex.edgesFrom[p] = edges
			for _, e := range edges {
				ex.batchOK[e] = acceptsBatch(e)
			}
		}
	}
	for _, n := range g.Inputs() {
		ex.feeds[n] = make(chan frame.Window, opts.MaxInFlight)
	}
	switch opts.Executor {
	case "", ExecGoroutines:
		ex.eng = newChanEngine(ex)
	case ExecWorkers:
		ex.eng = newWorkerEngine(ex, opts.Workers)
	default:
		return nil, fmt.Errorf("runtime: unknown executor %q", opts.Executor)
	}
	return ex, nil
}

func (ex *executor) start() chan struct{} { return ex.eng.start() }

// runErr returns the first error recorded by fail, if any.
func (ex *executor) runErr() error {
	ex.errMu.Lock()
	defer ex.errMu.Unlock()
	return ex.err
}

// Run executes the graph for opts.Frames frames and returns the
// collected outputs. The graph must Validate cleanly. Run is a Session
// fed the generated frames: a feeder goroutine feeds them and finishes
// the session, while Run collects one result per frame and rebuilds
// each output's item stream from the recorded token positions.
func Run(g *graph.Graph, opts Options) (*Result, error) {
	frames := max(opts.Frames, 1)
	s, err := newSession(g, SessionOptions{
		Sources:  opts.Sources,
		Executor: opts.Executor,
		Workers:  opts.Workers,
	}, true)
	if err != nil {
		return nil, err
	}
	go func() {
		for f := 0; f < frames; f++ {
			if _, err := s.Feed(nil); err != nil {
				s.Abort(err) // a bad generated frame; keeps an earlier run error
				break
			}
		}
		s.Finish()
	}()
	var expired <-chan time.Time
	if opts.Timeout > 0 {
		t := time.NewTimer(opts.Timeout)
		defer t.Stop()
		expired = t.C
	}
	outputs := make(map[string][]graph.Item)
	got := 0
	for ; got < frames; got++ {
		res, err := s.next(expired)
		if errors.Is(err, ErrCollectTimeout) {
			return nil, s.watchdog(opts.Timeout)
		}
		if err != nil {
			break // the run failed or drained short; reported below
		}
		for name, wins := range res.Outputs {
			items := outputs[name]
			if got == 0 {
				// The first frame fixes the per-frame item count; reserve
				// the whole run's worth instead of growing frame by frame.
				items = make([]graph.Item, 0, (len(wins)+len(res.tokens[name]))*frames)
			}
			outputs[name] = appendFrame(items, wins, res.tokens[name])
		}
	}
	select {
	case <-s.done:
	case <-expired:
		return nil, s.watchdog(opts.Timeout)
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	// The run only succeeded if every output saw its full frame budget
	// (a kernel that silently swallows its stream must not pass).
	for _, o := range g.Outputs() {
		if n := got + len(s.ex.doneFrames[o.Name()]); n < frames {
			return nil, fmt.Errorf("runtime: output %q completed %d of %d frames",
				o.Name(), n, frames)
		}
	}
	return &Result{Outputs: outputs, Firings: s.ex.firings}, nil
}

// watchdog aborts a run whose outputs missed Options.Timeout. A kernel
// stuck outside Recv/Send never notices the stop, so the run gives it a
// grace period and then leaks it rather than waiting forever.
func (s *Session) watchdog(timeout time.Duration) error {
	s.Abort(fmt.Errorf("runtime: watchdog: outputs incomplete after %v", timeout))
	select {
	case <-s.done:
	case <-time.After(time.Second):
	}
	return s.Err()
}

// appendFrame appends one frame of an output to items as the exact
// stream the output received: the data windows with the frame's control
// tokens back in place.
func appendFrame(items []graph.Item, wins []frame.Window, toks []tokenAt) []graph.Item {
	w := 0
	for _, t := range toks {
		for ; w < t.pos; w++ {
			items = append(items, graph.DataItem(wins[w]))
		}
		items = append(items, graph.TokenItem(t.tok))
	}
	for ; w < len(wins); w++ {
		items = append(items, graph.DataItem(wins[w]))
	}
	return items
}

// recordFiring counts n logical method invocations for consistency
// checks. A batched firing covers its batch's N logical invocations, so
// the firings-vs-analysis cross-check holds with batching on or off.
func (ex *executor) recordFiring(node, method string, n int64) {
	ex.fireMu.Lock()
	m := ex.firings[node]
	if m == nil {
		m = make(map[string]int64)
		ex.firings[node] = m
	}
	m[method] += n
	ex.fireMu.Unlock()
}

func (ex *executor) downstreamConsumers(n *graph.Node) []*graph.Node {
	seen := make(map[*graph.Node]bool)
	var out []*graph.Node
	for _, e := range ex.g.OutEdges(n) {
		c := e.To.Node()
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func (ex *executor) fail(err error) {
	ex.errMu.Lock()
	if ex.err == nil {
		ex.err = err
	}
	ex.errMu.Unlock()
	ex.stopAll()
}

func (ex *executor) stopAll() {
	ex.stopOnce.Do(func() {
		close(ex.stop)
		ex.eng.stopNotify()
	})
}

func (ex *executor) stopping() bool {
	select {
	case <-ex.stop:
		return true
	default:
		return false
	}
}

// acceptsBatch reports whether the edge's consumer handles batched
// items natively: application outputs unbatch at collection, and
// behaviors opt in per input via graph.BatchAware.
func acceptsBatch(e *graph.Edge) bool {
	n := e.To.Node()
	if n.Kind == graph.KindOutput {
		return true
	}
	ba, ok := n.Behavior.(graph.BatchAware)
	return ok && ba.AcceptsBatch(e.To.Name)
}

// send delivers an item to every consumer of the given output port,
// adding one pool reference per extra consumer (ownership protocol:
// the caller's reference covers the first consumer). It aborts
// silently once the run is stopping; undelivered references then fall
// back to the garbage collector, which the arena tolerates.
func (ex *executor) send(from *graph.Port, it graph.Item) {
	edges := ex.edgesFrom[from]
	if !it.IsToken && it.B.IsBatch() {
		ex.sendBatch(edges, it)
		return
	}
	if !it.IsToken && len(edges) > 1 {
		it.Win.Retain(len(edges) - 1)
	}
	for _, e := range edges {
		ex.eng.deliver(e, it)
	}
}

// sendBatch fans a row batch out: batch-accepting consumers receive the
// one physical item; everyone else receives its N logical windows as
// view items in stream order. Reference math: every delivered item —
// batch or view — is one consumer-side release, so the total retained
// is (deliveries - 1) on top of the caller's reference.
func (ex *executor) sendBatch(edges []*graph.Edge, it graph.Item) {
	n := int(it.B.N)
	total := 0
	for _, e := range edges {
		if ex.batchOK[e] {
			total++
		} else {
			total += n
		}
	}
	if total == 0 {
		it.Win.Release()
		return
	}
	it.Win.Retain(total - 1)
	for _, e := range edges {
		if ex.batchOK[e] {
			ex.eng.deliver(e, it)
			continue
		}
		for j := 0; j < n; j++ {
			ex.eng.deliver(e, graph.DataItem(it.B.Window(it.Win, j)))
		}
	}
}

// recv pulls the next delivery for node n; ok is false when all
// producers are done and the inbox is drained, or the run is stopping.
func (ex *executor) recv(n *graph.Node) (inMsg, bool) {
	return ex.eng.recv(n)
}

func (ex *executor) runNode(n *graph.Node) error {
	switch n.Kind {
	case graph.KindInput:
		return ex.runInput(n)
	case graph.KindOutput:
		return ex.runOutput(n)
	}
	if r, ok := graph.RunnerBehavior(n); ok {
		ctx := &runCtx{ex: ex, node: n}
		return r.Run(ctx)
	}
	if n.Behavior == nil {
		return fmt.Errorf("runtime: node %q has no behavior", n.Name())
	}
	inv, ok := n.Behavior.(graph.Invoker)
	if !ok {
		return fmt.Errorf("runtime: node %q behavior implements neither Invoker nor Runner", n.Name())
	}
	d := newDriver(ex, n, inv)
	return d.loop()
}

// runCtx adapts the executor to graph.RunContext for Runner kernels.
type runCtx struct {
	ex      *executor
	node    *graph.Node
	pending map[string][]graph.Item
}

func (c *runCtx) Node() *graph.Node { return c.node }

func (c *runCtx) Send(output string, it graph.Item) {
	p := c.node.Output(output)
	if p == nil {
		panic(fmt.Sprintf("runtime: node %q has no output %q", c.node.Name(), output))
	}
	c.ex.send(p, it)
}

func (c *runCtx) Recv(input string) (graph.Item, bool) {
	if c.pending == nil {
		c.pending = make(map[string][]graph.Item)
	}
	if q := c.pending[input]; len(q) > 0 {
		it := q[0]
		c.pending[input] = q[1:]
		return it, true
	}
	for {
		msg, ok := c.ex.recv(c.node)
		if !ok {
			return graph.Item{}, false
		}
		if msg.input == input {
			return msg.item, true
		}
		c.pending[msg.input] = append(c.pending[msg.input], msg.item)
	}
}

// emitFrame chunks one frame into scan-order items with end-of-line
// and end-of-frame tokens (paper §II-C: these two tokens are generated
// automatically by the data inputs). The chunks are stride-aware views
// of img — zero allocations per item — so img must stay immutable while
// the frame is in flight.
//
// emitFrame takes ownership of img when it is pooled (a frame decoded
// off the cluster wire, for instance): each emitted item carries its
// own reference to the shared backing — the item count minus one
// retained here plus the caller's original — so the standard
// release-after-consume protocol returns the storage to the arena
// exactly when the last chunk has been consumed.
func (ex *executor) emitFrame(out *graph.Port, fw, fh, cw, ch int, img frame.Window, f int64) {
	cols, rows := fw/cw, fh/ch
	if rows > 1 {
		img.Retain(rows - 1)
	}
	row := f * int64(rows)
	for y := 0; y+ch <= fh; y += ch {
		if cols > 1 {
			// Row-batched chunking: one physical item per chunk row
			// instead of one per chunk; send retains whatever extra its
			// fan-out (or per-edge splitting) needs.
			b := graph.Batch{N: int32(cols), Sx: int32(cw), Bw: int32(cw)}
			ex.send(out, graph.BatchItem(img.View(0, y, fw, ch), b))
		} else {
			ex.send(out, graph.DataItem(img.View(0, y, cw, ch)))
		}
		ex.send(out, graph.TokenItem(token.EOL(row)))
		row++
	}
	ex.send(out, graph.TokenItem(token.EOF(f)))
}

// runInput chunks every frame fed to input n (emitFrame) until the
// feed closes.
func (ex *executor) runInput(n *graph.Node) error {
	out := n.Output("out")
	chunk := out.Size
	fs := n.FrameSize
	for f := int64(0); ; f++ {
		select {
		case img, ok := <-ex.feeds[n]:
			if !ok {
				return nil
			}
			ex.emitFrame(out, fs.W, fs.H, chunk.W, chunk.H, img, f)
		case <-ex.stop:
			return nil
		}
	}
}

// runOutput assembles per-frame results: data windows (and, when the
// executor keeps tokens, control tokens) accumulate until the
// end-of-frame token, and once every application output has completed
// a frame the combined result is flushed to ready.
func (ex *executor) runOutput(n *graph.Node) error {
	name := n.Name()
	var cur frameOut
	for {
		msg, ok := ex.recv(n)
		if !ok {
			return nil
		}
		it := msg.item
		if !it.IsToken {
			ex.outMu.Lock()
			cur.wins = ex.collect(cur.wins, it)
			ex.outMu.Unlock()
			continue
		}
		if ex.keepTokens {
			cur.toks = append(cur.toks, tokenAt{pos: len(cur.wins), tok: it.Tok})
		}
		if it.Tok.Kind != token.EndOfFrame {
			continue
		}
		res, all := ex.assemble(name, cur)
		// Frames of one stream have the same shape: size the next frame
		// like this one instead of growing it append by append.
		next := frameOut{wins: make([]frame.Window, 0, len(cur.wins))}
		if ex.keepTokens {
			next.toks = make([]tokenAt, 0, len(cur.toks))
		}
		cur = next
		if !all {
			continue
		}
		select {
		case ex.ready <- res:
			ex.noteFlushed(1)
		case <-ex.stop:
			return nil
		}
	}
}

// collect appends one data item's logical windows to wins: the samples
// are copied into append-only slab blocks and the original is released,
// so the caller-visible result never pins pooled storage. A row batch
// is placed with one copy and cut into per-window views of that dense
// copy — application outputs always present the logical stream. Must be
// called with outMu held.
func (ex *executor) collect(wins []frame.Window, it graph.Item) []frame.Window {
	dense := ex.slab.place(it.Win)
	it.Win.Release()
	if !it.B.IsBatch() {
		return append(wins, dense)
	}
	for j := 0; j < int(it.B.N); j++ {
		wins = append(wins, it.B.Window(dense, j))
	}
	return wins
}

// assemble queues output name's finished frame f and, once every
// application output has finished its oldest queued frame, pops those
// frames into one result.
func (ex *executor) assemble(name string, f frameOut) (StreamResult, bool) {
	ex.outMu.Lock()
	defer ex.outMu.Unlock()
	ex.doneFrames[name] = append(ex.doneFrames[name], f)
	outs := ex.g.Outputs()
	for _, o := range outs {
		if len(ex.doneFrames[o.Name()]) == 0 {
			return StreamResult{}, false
		}
	}
	res := StreamResult{Seq: ex.seq, Outputs: make(map[string][]frame.Window, len(outs))}
	if ex.keepTokens {
		res.tokens = make(map[string][]tokenAt, len(outs))
	}
	for _, o := range outs {
		q := ex.doneFrames[o.Name()]
		res.Outputs[o.Name()] = q[0].wins
		if ex.keepTokens {
			res.tokens[o.Name()] = q[0].toks
		}
		q[0] = frameOut{}
		ex.doneFrames[o.Name()] = q[1:]
	}
	ex.seq++
	return res, true
}

// noteFlushed counts n more frames handed to ready and applies the
// feedback termination rule: once the feeds have closed and every fed
// frame is flushed, a graph with a feedback loop is stopped, since its
// loop would otherwise wait on itself forever.
func (ex *executor) noteFlushed(n int64) {
	ex.outMu.Lock()
	ex.flushed += n
	drained := ex.feedback && ex.fedTotal >= 0 && ex.flushed >= ex.fedTotal
	ex.outMu.Unlock()
	if drained {
		ex.stopAll()
	}
}

// closeFeeds ends the input streams after fed frames.
func (ex *executor) closeFeeds(fed int64) {
	for _, ch := range ex.feeds {
		close(ch)
	}
	ex.outMu.Lock()
	ex.fedTotal = fed
	ex.outMu.Unlock()
	ex.noteFlushed(0)
}

// slabAlloc packs output windows into append-only blocks. Blocks are
// never reallocated — when one fills, a fresh block starts and the old
// one stays alive exactly as long as the result windows placed in it —
// so placing is a copy plus slice arithmetic, with one allocation per
// block instead of one per window. F64 windows pack into a float64
// slab; typed windows pack into a byte slab (8-aligned blocks, offsets
// rounded to 8 so f32 views stay aligned), preserving their kind.
type slabAlloc struct {
	buf []float64
	raw []byte
}

// slabBlock is the block granularity in samples (128 KiB blocks).
const slabBlock = 1 << 14

// place copies w into slab storage and returns the dense copy.
func (s *slabAlloc) place(w frame.Window) frame.Window {
	if w.Kind != frame.F64 {
		return s.placeTyped(w)
	}
	n := w.W * w.H
	if n == 0 {
		return frame.Window{W: w.W, H: w.H}
	}
	if len(s.buf)+n > cap(s.buf) {
		c := slabBlock
		if n > c {
			c = n
		}
		s.buf = make([]float64, 0, c)
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	dst := s.buf[off : off+n : off+n]
	stride := w.RowStride()
	for y := 0; y < w.H; y++ {
		copy(dst[y*w.W:(y+1)*w.W], w.Pix[y*stride:y*stride+w.W])
	}
	return frame.Window{W: w.W, H: w.H, Pix: dst}
}

func (s *slabAlloc) placeTyped(w frame.Window) frame.Window {
	es := w.Kind.Bytes()
	nb := w.W * w.H * es
	if nb == 0 {
		return frame.NewWindowKind(w.Kind, w.W, w.H)
	}
	// Round the write offset up to 8 bytes so f32 views are aligned.
	off := (len(s.raw) + 7) &^ 7
	if off+nb > cap(s.raw) {
		c := slabBlock * 8
		if nb > c {
			c = nb
		}
		s.raw = frame.AlignedBytes(c)
		off = 0
	}
	s.raw = s.raw[:off+nb]
	dst := s.raw[off : off+nb : off+nb]
	for y := 0; y < w.H; y++ {
		copy(dst[y*w.W*es:(y+1)*w.W*es], w.RowBytes(y))
	}
	return frame.WrapBytes(w.Kind, w.W, w.H, dst)
}
