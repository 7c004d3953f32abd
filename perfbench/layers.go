package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/cluster"
	"blockpar/internal/core"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/sim"
	"blockpar/internal/token"
	"blockpar/internal/wire"
)

// sideSeconds is how many seconds' worth of paced frames the side runs
// (in-process and whole-session baselines for the hop rows) replay.
const sideSeconds = 2.0

// runTraced runs the traced assembly and every per-layer measurement.
// It returns the per-layer metrics and the traced run's e2e record.
func runTraced(p params, untraced *e2e) (map[string]metric, *e2e, error) {
	tr := newTracer()
	tr.wire.maxCaptureBytes = 64 << 20
	traced, err := runE2E(p, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced run: %w", err)
	}
	m := map[string]metric{}
	d := traced.paced
	lg := traced.lg

	// Per-frame spans of the traced paced phase.
	type frameSpans struct {
		lag, httpSelf, backend, verify float64
	}
	var frames []frameSpans
	var events []traceEvent
	var origin time.Time
	for _, c := range lg.results {
		if c.phase != paced || !c.ok {
			continue
		}
		be, ok := tr.backendSpan(c.seq)
		if !ok {
			continue
		}
		if origin.IsZero() {
			origin = c.due
		}
		root := span{name: "frame", start: c.due, end: c.done}
		lag := span{name: "loadgen.lag", start: c.due, end: c.sent}
		httpSpan := span{name: "serve.http", start: c.sent, end: c.bodyRead}
		verify := span{name: "loadgen.verify", start: c.bodyRead, end: c.done}
		frames = append(frames, frameSpans{
			lag:      ms(lag.dur()),
			httpSelf: ms(selfTime(httpSpan, []span{be})),
			backend:  ms(be.dur()),
			verify:   ms(verify.dur()),
		})
		events = append(events,
			spanEvent(root, "", c.seq, origin),
			spanEvent(lag, root.name, c.seq, origin),
			spanEvent(httpSpan, root.name, c.seq, origin),
			spanEvent(span{name: "serve.feed", start: c.sent, end: c.fed}, httpSpan.name, c.seq, origin),
			spanEvent(span{name: "serve.collect", start: c.collectStart, end: c.bodyRead}, httpSpan.name, c.seq, origin),
			spanEvent(span{name: "backend", start: be.start, end: be.end}, httpSpan.name, c.seq, origin),
			spanEvent(verify, root.name, c.seq, origin),
		)
	}
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("traced run collected no paced frames")
	}
	col := func(f func(frameSpans) float64) []float64 {
		out := make([]float64, len(frames))
		for i, fr := range frames {
			out[i] = f(fr)
		}
		return out
	}
	nFrames := float64(len(frames))
	perFrame := func(n int64) float64 { return float64(n) / nFrames }

	// serve
	m["serve.http_self_ms"] = metric{median(col(func(f frameSpans) float64 { return f.httpSelf })), "ms"}
	m["serve.resp_bytes_per_frame"] = metric{perFrame(d.httpRead), "B"}
	m["serve.req_bytes_per_frame"] = metric{perFrame(d.httpWritten), "B"}
	m["serve.refused_feeds"] = metric{float64(len(lg.refusals)), "count"}

	// runtime: an in-process session on the same frames, paced alike.
	side := int(math.Ceil(p.rate * sideSeconds))
	if side > len(frames) {
		side = len(frames)
	}
	inputs := func(i int) map[string]frame.Window {
		if p.pool == nil {
			return nil
		}
		return p.pool.wins[i%len(p.pool.wins)]
	}
	pipe, err := compilePipeline(p.w.app)
	if err != nil {
		return nil, nil, err
	}
	inproc, err := pipe.NewSession(runtime.SessionOptions{MaxInFlight: p.bound})
	if err != nil {
		return nil, nil, err
	}
	sessionSpans, err := driveHandle(inproc, traced.warm, p.bound, side, p.rate, inputs)
	inproc.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("in-process side run: %w", err)
	}
	sessionMs := median(sessionSpans)
	backendFirst := median(col(func(f frameSpans) float64 { return f.backend })[:side])
	m["runtime.session_ms_per_frame"] = metric{sessionMs, "ms"}

	// cluster and partition relay
	var hop, partHop float64
	switch p.w.backend {
	case whole:
		hop = backendFirst - sessionMs
	case partitioned:
		disp, stop, err := cluster.Loopback(newWorker(0), cluster.DispatcherOptions{})
		if err != nil {
			return nil, nil, err
		}
		h, err := disp.Open(pipe, serve.OpenOptions{MaxInFlight: p.bound})
		if err != nil {
			stop()
			return nil, nil, err
		}
		wholeSpans, err := driveHandle(h, traced.warm, p.bound, side, p.rate, inputs)
		h.Close()
		stop()
		if err != nil {
			return nil, nil, fmt.Errorf("whole-session side run: %w", err)
		}
		wholeMs := median(wholeSpans)
		hop = wholeMs - sessionMs
		partHop = backendFirst - wholeMs
	}
	m["cluster.hop_ms"] = metric{hop, "ms"}
	m["cluster.wire_bytes_per_frame"] = metric{perFrame(d.wireBytes), "B"}
	m["cluster.conn_writes_per_frame"] = metric{perFrame(d.wireWrites), "count"}
	m["cluster.conn_reads_per_frame"] = metric{perFrame(d.wireReads), "count"}
	m["cluster.queue_full_ratio"] = metric{float64(tr.queueFull.Load()) / float64(max(tr.tryFeeds.Load(), 1)), "ratio"}
	m["cluster.open_ms"] = metric{ms(tr.open), "ms"}
	m["partition.hop_ms"] = metric{partHop, "ms"}
	m["partition.wire_bytes_per_frame"] = metric{perFrame(d.relayBytes), "B"}
	m["partition.conn_writes_per_frame"] = metric{perFrame(d.relayWrites), "count"}

	// wire: the codec on the captured messages.
	enc, dec, wallocs, err := benchWire(tr.wire.captured, captureFrames)
	if err != nil {
		return nil, nil, err
	}
	m["wire.encode_us_per_frame"] = metric{enc, "us"}
	m["wire.decode_us_per_frame"] = metric{dec, "us"}
	m["wire.allocs_per_frame"] = metric{wallocs, "count"}

	// runtime: batch Run, and the null-kernel chain per engine.
	batchMs, batchAllocs, firings, err := benchBatch(pipe, p.pool)
	if err != nil {
		return nil, nil, err
	}
	m["runtime.ms_per_frame"] = metric{batchMs, "ms"}
	m["runtime.allocs_per_frame"] = metric{batchAllocs, "count"}
	m["runtime.firings_per_frame"] = metric{firings, "count"}
	for _, ex := range []runtime.ExecutorKind{runtime.ExecGoroutines, runtime.ExecWorkers} {
		ns, err := benchNullChain(ex)
		if err != nil {
			return nil, nil, err
		}
		m["runtime.null_chain_ns_per_firing."+string(ex)] = metric{ns, "ns"}
	}

	// kernel
	for _, k := range kernelBenches() {
		ns, err := benchKernel(k)
		if err != nil {
			return nil, nil, fmt.Errorf("kernel %s: %w", k.ctor, err)
		}
		m["kernel."+k.ctor+".ns_per_sample"] = metric{ns, "ns"}
	}

	// frame
	m["frame.pool_gets_per_frame"] = metric{perFrame(d.poolGets), "count"}
	m["frame.pool_hit_ratio"] = metric{float64(d.poolHits) / float64(max(d.poolGets, 1)), "ratio"}
	m["frame.live_after_close"] = metric{float64(traced.liveAfterClose), "count"}

	// core and sim
	compileMs, err := benchCompile(p.w.app)
	if err != nil {
		return nil, nil, err
	}
	m["core.compile_ms"] = metric{compileMs, "ms"}
	predicted, err := simulate(p.w.app)
	if err != nil {
		return nil, nil, err
	}
	m["sim.predicted_ms_per_frame"] = metric{predicted, "ms"}
	m["sim.model_ratio"] = metric{batchMs / predicted, "ratio"}

	// load generator and tracing overhead
	m["loadgen.lag_p90_ms"] = metric{percentile(untraced.lg.lags(paced), 0.9), "ms"}
	tracedP50 := traced.metrics["latency_p50_ms"].Value
	parts := map[string]float64{
		"loadgen_lag_p50":    median(col(func(f frameSpans) float64 { return f.lag })),
		"serve_self_p50":     m["serve.http_self_ms"].Value,
		"backend_p50":        median(col(func(f frameSpans) float64 { return f.backend })),
		"loadgen_verify_p50": median(col(func(f frameSpans) float64 { return f.verify })),
	}
	accounted := 0.0
	for _, v := range parts {
		accounted += v
	}
	m["trace.latency_p50_ms"] = metric{tracedP50, "ms"}
	m["trace.overhead_p50_ms"] = metric{tracedP50 - untraced.metrics["latency_p50_ms"].Value, "ms"}
	m["trace.accounted_ratio"] = metric{accounted / tracedP50, "ratio"}

	overhead := map[string]any{}
	for _, name := range sortedKeys(untraced.metrics) {
		u, t := untraced.metrics[name].Value, traced.metrics[name].Value
		overhead[name] = map[string]float64{"untraced": u, "traced": t, "difference": t - u}
		fmt.Fprintf(os.Stderr, "perfbench: %-18s untraced %12.4f  traced %12.4f  difference %+.4f\n", name, u, t, t-u)
	}
	traced.raw["overhead"] = overhead
	parts["latency_p50"] = tracedP50
	parts["runtime_session"] = sessionMs
	parts["cluster_hop"] = hop
	parts["partition_hop"] = partHop
	traced.raw["accounting_ms"] = parts
	traced.raw["spans"] = events
	return m, traced, nil
}

// compilePipeline compiles the suite app into a fresh registry.
func compilePipeline(id string) (*serve.Pipeline, error) {
	reg := serve.NewRegistry(machine.Embedded())
	if err := reg.AddSuite(id); err != nil {
		return nil, err
	}
	p, _ := reg.Get(id)
	return p, nil
}

// driveHandle drives a session handle directly, without HTTP: warm
// frames closed-loop with up to half of bound in flight, then n frames
// open-loop at rate. It returns each paced frame's span from TryFeed to
// the Collect that delivered it, in milliseconds.
func driveHandle(h serve.SessionHandle, warm, bound, n int, rate float64, inputs func(i int) map[string]frame.Window) ([]float64, error) {
	collect := func() (*runtime.StreamResult, error) {
		res, err := h.Collect(5 * time.Second)
		if err != nil {
			return nil, err
		}
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
		return res, nil
	}
	window := max(bound/2, 1)
	for i := 0; i < warm+window; i++ {
		if i >= window {
			if _, err := collect(); err != nil {
				return nil, err
			}
		}
		if i < warm {
			if _, err := h.TryFeed(inputs(i)); err != nil {
				return nil, err
			}
		}
	}
	starts := make([]time.Time, n)
	spans := make([]float64, n)
	fed := make(chan int, n)
	errc := make(chan error, 1)
	go func() {
		for range n {
			i, ok := <-fed
			if !ok {
				errc <- nil
				return
			}
			if _, err := collect(); err != nil {
				errc <- err
				return
			}
			spans[i] = ms(time.Since(starts[i]))
		}
		errc <- nil
	}()
	s := newSchedule(time.Now(), rate)
	var ferr error
	for i := 0; i < n; i++ {
		if d := time.Until(s.due(i)); d > 0 {
			time.Sleep(d)
		}
		starts[i] = time.Now()
		if _, ferr = h.TryFeed(inputs(warm + i)); ferr != nil {
			break
		}
		fed <- i
	}
	close(fed)
	if err := <-errc; err != nil {
		return nil, err
	}
	return spans, ferr
}

// benchWire times wire.Decode and wire.Append over the captured
// messages and reports microseconds and allocations per frame.
func benchWire(msgs []capturedMsg, frames int) (encUs, decUs, allocs float64, err error) {
	if len(msgs) == 0 {
		return 0, 0, 0, nil
	}
	decoded := make([]wire.Msg, len(msgs))
	for i, c := range msgs {
		if decoded[i], err = wire.Decode(c.typ, c.payload); err != nil {
			return 0, 0, 0, fmt.Errorf("decoding a captured %s: %w", c.typ, err)
		}
	}
	defer func() {
		for _, m := range decoded {
			releaseMsg(m)
		}
	}()
	decodeAll := func() {
		for _, c := range msgs {
			m, _ := wire.Decode(c.typ, c.payload)
			releaseMsg(m)
		}
	}
	var buf []byte
	encodeAll := func() {
		for _, m := range decoded {
			buf = wire.Append(buf[:0], m)
		}
	}
	a0 := heapAllocs()
	decodeAll()
	encodeAll()
	allocs = float64(heapAllocs()-a0) / float64(frames)
	perFrame := func(f func()) float64 {
		return timeReps(f) / float64(frames) / 1e3
	}
	return perFrame(encodeAll), perFrame(decodeAll), allocs, nil
}

// releaseMsg returns a decoded message's arena windows.
func releaseMsg(m wire.Msg) {
	switch m := m.(type) {
	case *wire.Feed:
		for _, in := range m.Inputs {
			in.Win.Release()
		}
	case *wire.Result:
		for _, out := range m.Outputs {
			for _, w := range out.Wins {
				w.Release()
			}
		}
	case *wire.EdgeFrame:
		for _, it := range m.Items {
			if !it.IsToken {
				it.Win.Release()
			}
		}
	}
}

// timeReps returns the median nanoseconds of one call of f, over
// repeats filling at least 100 ms.
func timeReps(f func()) float64 {
	var ns []float64
	start := time.Now()
	for len(ns) < 5 || time.Since(start) < 100*time.Millisecond {
		t := time.Now()
		f()
		ns = append(ns, float64(time.Since(t)))
	}
	return median(ns)
}

// benchBatch runs the pipeline's batch runtime.Run on the workload's
// inputs and reports ms, allocations and kernel firings per frame.
func benchBatch(p *serve.Pipeline, pool *inputPool) (msPer, allocsPer, firingsPer float64, err error) {
	const frames = 16
	srcs := map[string]frame.Generator{}
	for k, v := range p.Sources() {
		srcs[k] = v
	}
	if pool != nil {
		for name := range pool.wins[0] {
			name := name
			srcs[name] = func(seq int64, w, h int) frame.Window {
				return pool.wins[int(seq)%len(pool.wins)][name].Clone()
			}
		}
	}
	var times, allocs []float64
	var res *runtime.Result
	for rep := 0; rep < 5; rep++ {
		g := p.Graph().Clone()
		a0, t0 := heapAllocs(), time.Now()
		if res, err = runtime.Run(g, runtime.Options{Frames: frames, Sources: srcs}); err != nil {
			return 0, 0, 0, err
		}
		times = append(times, ms(time.Since(t0))/frames)
		allocs = append(allocs, float64(heapAllocs()-a0)/frames)
	}
	var fired int64
	for _, byMethod := range res.Firings {
		for _, n := range byMethod {
			fired += n
		}
	}
	return median(times), median(allocs), float64(fired) / frames, nil
}

// benchNullChain reports the engine's per-firing overhead: a chain of
// eight identity Gain kernels over 1×1 items, on the given executor.
func benchNullChain(ex runtime.ExecutorKind) (float64, error) {
	const frames, depth = 4, 8
	var per []float64
	for rep := 0; rep < 3; rep++ {
		g := graph.New("null-chain")
		prev := g.AddInput("in", geom.Sz(64, 48), geom.Sz(1, 1), geom.F(130, 1))
		for i := 0; i < depth; i++ {
			k := g.Add(kernel.Gain(fmt.Sprintf("g%d", i), 1))
			g.Connect(prev, "out", k, "in")
			prev = k
		}
		out := g.AddOutput("out", geom.Sz(1, 1))
		g.Connect(prev, "out", out, "in")
		t0 := time.Now()
		res, err := runtime.Run(g, runtime.Options{Frames: frames, Executor: ex})
		if err != nil {
			return 0, err
		}
		elapsed := time.Since(t0)
		var fired int64
		for _, byMethod := range res.Firings {
			for _, n := range byMethod {
				fired += n
			}
		}
		per = append(per, float64(elapsed)/float64(max(fired, 1)))
	}
	return median(per), nil
}

// kernelBench is one kernel behaviour timed through benchCtx.
type kernelBench struct {
	ctor   string
	node   *graph.Node
	method string
	// setup runs once before timing (coefficient or bin loads).
	setup func(b graph.Invoker) error
}

func kernelBenches() []kernelBench {
	edges := frame.NewWindow(32, 1)
	copy(edges.Pix, frame.UniformBins(32, 0, 256))
	return []kernelBench{
		{ctor: "BayerDemosaic", node: kernel.BayerDemosaic("k"), method: "demosaic"},
		{ctor: "Histogram", node: kernel.Histogram("k", 32), method: "count",
			setup: func(b graph.Invoker) error {
				return b.Invoke("configureBins", &benchCtx{inputs: map[string]frame.Window{"bins": edges}})
			}},
		{ctor: "Merge", node: kernel.Merge("k", 32), method: "accumulate"},
		{ctor: "Median", node: kernel.Median("k", 3), method: "runMedian"},
		{ctor: "Convolution", node: kernel.Convolution("k", 5), method: "runConvolve",
			setup: func(b graph.Invoker) error {
				return b.Invoke("loadCoeff", &benchCtx{inputs: map[string]frame.Window{"coeff": apps.ImageCoeff()}})
			}},
		{ctor: "Downsample", node: kernel.Downsample("k", 2), method: "runDownsample"},
		{ctor: "Subtract", node: kernel.Subtract("k"), method: "subtract"},
		{ctor: "Threshold", node: kernel.Threshold("k", 100, 0, 1), method: "runThreshold"},
	}
}

// benchKernel times one method's Invoke and reports nanoseconds per
// input-stream sample: per firing, divided by the samples one firing
// advances its data input (the port's step area).
func benchKernel(k kernelBench) (float64, error) {
	b, ok := k.node.Behavior.(graph.Invoker)
	if !ok {
		return 0, fmt.Errorf("behaviour is not an Invoker")
	}
	if k.setup != nil {
		if err := k.setup(b); err != nil {
			return 0, err
		}
	}
	ctx := &benchCtx{inputs: map[string]frame.Window{}}
	var samples int
	for _, in := range k.node.Inputs() {
		if in.Replicated {
			continue
		}
		ctx.inputs[in.Name] = frame.LCG(int64(len(in.Name)), in.Size.W, in.Size.H)
		if samples == 0 {
			samples = in.Step.X * in.Step.Y
		}
	}
	const firings = 4096
	var ferr error
	ns := timeReps(func() {
		for i := 0; i < firings && ferr == nil; i++ {
			ferr = b.Invoke(k.method, ctx)
		}
	})
	if ferr != nil {
		return 0, ferr
	}
	return ns / firings / float64(max(samples, 1)), nil
}

// benchCtx is the benchmark's graph.ExecContext: fixed inputs, and
// emitted windows released at once, as a consumer would.
type benchCtx struct {
	inputs map[string]frame.Window
}

func (c *benchCtx) Input(name string) frame.Window { return c.inputs[name] }
func (c *benchCtx) Token(string) token.Token       { return token.Token{} }
func (c *benchCtx) Emit(_ string, w frame.Window)  { w.Release() }
func (c *benchCtx) EmitToken(string, token.Token)  {}

// benchCompile is the median time of core.Compile on a fresh graph.
func benchCompile(id string) (float64, error) {
	var times []float64
	for rep := 0; rep < 5; rep++ {
		app, err := apps.ByID(id)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := core.Compile(app.Graph, core.DefaultConfig()); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}

// simulate is the paper model's processing time per frame: the busy
// time of every PE on the embedded machine, summed over a steady-state
// frame, from sim.Simulate with the greedy mapping.
func simulate(id string) (float64, error) {
	const frames, warm = 4, 1
	app, err := apps.ByID(id)
	if err != nil {
		return 0, err
	}
	m := machine.Embedded()
	c, err := core.Compile(app.Graph, core.Config{Machine: m, Parallelize: true, BufferStriping: true})
	if err != nil {
		return 0, err
	}
	assign, err := mapping.Greedy(c.Graph, c.Analysis, m)
	if err != nil {
		return 0, err
	}
	res, err := sim.Simulate(c.Graph, assign, sim.Options{Machine: m, Frames: frames, WarmupFrames: warm})
	if err != nil {
		return 0, err
	}
	var busy float64
	for _, pe := range res.PEs {
		busy += pe.Busy()
	}
	return busy * 1e3 / (frames - warm), nil
}

// traceEvent is one Chrome trace_event entry, the format
// bpsim -trace-json writes.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// spanEvent renders one span as a complete ("X") event. Each frame gets
// its own thread row, so overlapping frames do not overlap on screen.
func spanEvent(s span, parent string, seq int64, origin time.Time) traceEvent {
	return traceEvent{
		Name: s.name,
		Cat:  "span",
		Ph:   "X",
		Ts:   float64(s.start.Sub(origin)) / 1e3,
		Dur:  float64(s.dur()) / 1e3,
		Pid:  1,
		Tid:  int(seq % 8),
		Args: map[string]any{"frame": seq, "parent": parent},
	}
}

func writeChromeTrace(path string, events []traceEvent) error {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
