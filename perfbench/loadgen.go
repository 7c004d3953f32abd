package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"sync"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
	"blockpar/internal/serve"
)

type phase int

const (
	warmup phase = iota
	paced
	saturated
)

func (p phase) String() string { return [...]string{"warmup", "paced", "saturated"}[p] }

// schedule is the paced phase's open-loop send plan: frame i is due at
// start + i/rate, whenever the previous sends actually happened.
type schedule struct {
	start  time.Time
	period float64 // nanoseconds between due times
}

func newSchedule(start time.Time, rate float64) schedule {
	return schedule{start: start, period: float64(time.Second) / rate}
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(math.Round(float64(i) * s.period)))
}

// frameRec is one accepted feed, handed from the feeder to the
// collector.
type frameRec struct {
	phase    phase
	slice    int
	seq, key int64 // session frame index; golden sequence number
	due      time.Time
	sent     time.Time // feed request started
	fed      time.Time // feed reply read
}

// collected is the collector's record of one frame.
type collected struct {
	frameRec
	collectStart, bodyRead, done time.Time
	status                       int
	err                          string
	gotSeq                       int64
	hash                         uint64
	ok                           bool // set by verify: outputs equal the golden
}

// refused is a feed that did not enter the session. It is a dropped
// frame: counted as a failure and never retried.
type refused struct {
	phase  phase
	slice  int
	due    time.Time
	status int
	err    string
}

// loadgen drives one session over exactly two HTTP connections: the
// feeder (the calling goroutine) and the collector (its own
// goroutine).
type loadgen struct {
	a       *assembly
	pool    *inputPool // nil when the server generates inputs
	hseed   maphash.Seed
	feedURL string
	next    int // feeds attempted so far; picks the pool entry
	feedBuf bytes.Buffer
	recs    chan frameRec
	slots   chan struct{} // frames in flight in the closed-loop phases

	inflight sync.WaitGroup
	done     chan struct{}
	// onCollect, when set, runs on the collector after each frame.
	onCollect func(collected)
	// slice tags the frames fed from now on; set between phases.
	slice int

	mu         sync.Mutex
	results    []collected
	refusals   []refused
	satWindows map[int][2]time.Time // saturated feeding window per slice
}

func newLoadgen(a *assembly, pool *inputPool, bound int, hseed maphash.Seed) *loadgen {
	lg := &loadgen{
		a:       a,
		pool:    pool,
		hseed:   hseed,
		feedURL: a.base + "/frames",
		// The session admits at most bound frames, so the collector can
		// never be more than bound records behind the feeder.
		recs:  make(chan frameRec, bound+1),
		slots: make(chan struct{}, bound),
		done:  make(chan struct{}),

		satWindows: make(map[int][2]time.Time),
	}
	go lg.collect(a.base + "/collect?timeout=5s")
	return lg
}

// stop ends the collector once every accepted frame is collected.
func (lg *loadgen) stop() {
	lg.inflight.Wait()
	close(lg.recs)
	<-lg.done
}

// feed sends one frame due at due and reports whether the session
// accepted it. A refusal is recorded and the frame is dropped.
func (lg *loadgen) feed(ph phase, due time.Time) bool {
	var body []byte
	var key int64
	if lg.pool != nil {
		i := lg.next % len(lg.pool.bodies)
		body, key = lg.pool.bodies[i], lg.pool.keys[i]
	}
	lg.next++
	sent := time.Now()
	code, err := post(lg.a.feeder, lg.feedURL, body, &lg.feedBuf)
	fed := time.Now()
	var seq int64
	if err == nil && code == http.StatusAccepted {
		seq, err = frameField(lg.feedBuf.Bytes())
	}
	if err != nil || code != http.StatusAccepted {
		r := refused{phase: ph, slice: lg.slice, due: due, status: code}
		if err != nil {
			r.err = err.Error()
		}
		lg.mu.Lock()
		lg.refusals = append(lg.refusals, r)
		lg.mu.Unlock()
		return false
	}
	if lg.pool == nil {
		key = seq
	}
	lg.inflight.Add(1)
	lg.recs <- frameRec{phase: ph, slice: lg.slice, seq: seq, key: key, due: due, sent: sent, fed: fed}
	return true
}

// collect runs on its own goroutine: one collect request per accepted
// frame, in feed order. It hashes the outputs bytes without decoding
// them; verify compares the hashes against the goldens afterwards.
func (lg *loadgen) collect(url string) {
	defer close(lg.done)
	var buf bytes.Buffer
	for rec := range lg.recs {
		c := collected{frameRec: rec, collectStart: time.Now()}
		code, err := post(lg.a.collector, url, nil, &buf)
		c.bodyRead, c.status = time.Now(), code
		if err == nil && code == http.StatusOK {
			var outs []byte
			if c.gotSeq, err = frameField(buf.Bytes()); err == nil {
				outs, err = outputsField(buf.Bytes())
			}
			if err == nil {
				c.hash = maphash.Bytes(lg.hseed, outs)
			}
		} else if err == nil {
			err = fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(buf.Bytes()))
		}
		if err != nil {
			c.err = err.Error()
		}
		c.done = time.Now()
		lg.mu.Lock()
		lg.results = append(lg.results, c)
		lg.mu.Unlock()
		if lg.onCollect != nil {
			lg.onCollect(c)
		}
		if rec.phase != paced {
			<-lg.slots
		}
		lg.inflight.Done()
	}
}

// pace feeds frames open-loop at rate: n frames, or for dur when n is
// zero. It returns when every frame it fed has been collected.
func (lg *loadgen) pace(ph phase, rate float64, n int, dur time.Duration) {
	s := newSchedule(time.Now(), rate)
	for i := 0; ; i++ {
		due := s.due(i)
		if (n > 0 && i >= n) || (n == 0 && due.Sub(s.start) >= dur) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lg.feed(ph, due)
	}
	lg.inflight.Wait()
}

// saturate keeps the session's in-flight bound full, like a client
// replaying a recording, for n frames (when n > 0) or until dur
// passes, then waits for the stragglers.
func (lg *loadgen) saturate(ph phase, n int, dur time.Duration) {
	start := time.Now()
	timer := time.NewTimer(dur)
	defer timer.Stop()
loop:
	for i := 0; n == 0 || i < n; i++ {
		select {
		case lg.slots <- struct{}{}:
		case <-timer.C:
			break loop
		}
		if !lg.feed(ph, time.Now()) {
			<-lg.slots
		}
	}
	end := time.Now()
	lg.inflight.Wait()
	if ph == saturated {
		lg.mu.Lock()
		lg.satWindows[lg.slice] = [2]time.Time{start, end}
		lg.mu.Unlock()
	}
}

// verify checks every collected frame against its golden and marks
// the correct ones. It returns the number of mismatches: frames whose
// outputs differ from the golden. A reply for another frame than the
// one expected (possible only after a collect timed out) is a failure
// too, but not a wrong output.
func (lg *loadgen) verify(refs *references) (int, error) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	bad := 0
	for i := range lg.results {
		c := &lg.results[i]
		if c.err != "" {
			continue
		}
		if c.gotSeq != c.seq {
			c.err = fmt.Sprintf("reply carried frame %d, want %d", c.gotSeq, c.seq)
			continue
		}
		want, err := refs.hash(c.key)
		if err != nil {
			return 0, err
		}
		if c.ok = c.hash == want; !c.ok {
			bad++
			c.err = fmt.Sprintf("frame %d (golden %d): outputs differ from the golden", c.seq, c.key)
		}
	}
	return bad, nil
}

// counts returns the operations of the paced and saturated phases
// that were attempted (feeds and collects) and those that failed:
// refused feeds, failed or timed-out collects and outputs that differ
// from the golden.
func (lg *loadgen) counts() (attempted, failed int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	for _, r := range lg.refusals {
		if r.phase != warmup {
			attempted++
			failed++
		}
	}
	for _, c := range lg.results {
		if c.phase != warmup {
			attempted += 2 // its feed and its collect
			if !c.ok {
				failed++
			}
		}
	}
	return attempted, failed
}

// in reports whether a frame of phase ph and slice sl belongs to the
// selection (slice -1 selects every slice).
func in(ph phase, sl int, wantPh phase, wantSl int) bool {
	return ph == wantPh && (wantSl < 0 || sl == wantSl)
}

// latencies returns the per-frame latency in milliseconds of the
// selected frames, from each frame's due time to its verified result,
// with +Inf for every frame that was refused, failed or wrong.
func (lg *loadgen) latencies(ph phase, sl int) []float64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var out []float64
	for _, c := range lg.results {
		if !in(c.phase, c.slice, ph, sl) {
			continue
		}
		if c.ok {
			out = append(out, ms(c.done.Sub(c.due)))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	for _, r := range lg.refusals {
		if in(r.phase, r.slice, ph, sl) {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// lags returns how late the paced sender ran, per frame, in ms.
func (lg *loadgen) lags(ph phase) []float64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var out []float64
	for _, c := range lg.results {
		if c.phase == ph {
			out = append(out, ms(c.sent.Sub(c.due)))
		}
	}
	return out
}

// goodFrames counts the selected frames that were correct.
func (lg *loadgen) goodFrames(ph phase, sl int) int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	n := 0
	for _, c := range lg.results {
		if in(c.phase, c.slice, ph, sl) && c.ok {
			n++
		}
	}
	return n
}

// throughput is one saturated slice's correct frames completed per
// second of its feeding window.
func (lg *loadgen) throughput(sl int) float64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	w := lg.satWindows[sl]
	n := 0
	for _, c := range lg.results {
		if in(c.phase, c.slice, saturated, sl) && c.ok && !c.done.After(w[1]) {
			n++
		}
	}
	return float64(n) / w[1].Sub(w[0]).Seconds()
}

// inputPool holds the explicit input frames a workload's client sends,
// made from the seed, pre-encoded as feed bodies.
type inputPool struct {
	keys   []int64
	bodies [][]byte
	wins   []map[string]frame.Window
}

// poolKey maps the seed and a pool index to a golden sequence number.
// Keys stay below 997 so generated sample values, and with them the
// JSON size of a frame, do not drift with the seed.
func poolKey(seed int64, k int) int64 {
	return ((seed%997+997)%997*131 + 7*int64(k)) % 997
}

func newInputPool(app *apps.App, seed int64, n int) (*inputPool, error) {
	p := &inputPool{}
	for k := 0; k < n; k++ {
		key := poolKey(seed, k)
		wins := make(map[string]frame.Window)
		js := make(map[string]serve.WindowJSON)
		for _, in := range app.Graph.Inputs() {
			gen, ok := app.Sources[in.Name()]
			if !ok {
				return nil, fmt.Errorf("input %q has no generator", in.Name())
			}
			w := gen(key, in.FrameSize.W, in.FrameSize.H)
			wins[in.Name()] = w
			js[in.Name()] = serve.FromWindow(w)
		}
		body, err := json.Marshal(map[string]any{"inputs": js})
		if err != nil {
			return nil, err
		}
		p.keys = append(p.keys, key)
		p.bodies = append(p.bodies, body)
		p.wins = append(p.wins, wins)
	}
	return p, nil
}

// references computes, once per golden sequence number, the hash of
// the outputs bytes a correct collect reply carries.
type references struct {
	app   *apps.App
	hseed maphash.Seed
	cache map[int64]uint64
}

func newReferences(app *apps.App, hseed maphash.Seed) *references {
	return &references{app: app, hseed: hseed, cache: make(map[int64]uint64)}
}

func (r *references) hash(key int64) (uint64, error) {
	if h, ok := r.cache[key]; ok {
		return h, nil
	}
	b, err := json.Marshal(encodeOutputs(r.app.Golden(key)))
	if err != nil {
		return 0, err
	}
	h := maphash.Bytes(r.hseed, b)
	r.cache[key] = h
	return h, nil
}

// encodeOutputs is the wire form the server writes for a frame's
// outputs.
func encodeOutputs(outs map[string][]frame.Window) map[string][]serve.WindowJSON {
	out := make(map[string][]serve.WindowJSON, len(outs))
	for name, ws := range outs {
		js := make([]serve.WindowJSON, len(ws))
		for i, w := range ws {
			js[i] = serve.FromWindow(w)
		}
		out[name] = js
	}
	return out
}
