// Command perfbench is blockpar's end-to-end benchmark: real-time frame
// streams over HTTP, through the serving tier and the cluster, with
// per-layer rows from a separate traced run. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
)

// setupRuns is how many times a run assembles the system; setup_s is
// the median.
const setupRuns = 15

// pacedShare is the paced phase's rate as a share of the application's
// declared real-time rate. At the full rate a 2-vCPU box runs about
// half busy, and when the host takes CPU time away the open loop tips
// into overload for minutes at a time; at half the rate it does not.
const pacedShare = 0.5

// stallBudget sizes the session's in-flight bound: enough frames to
// absorb one scheduler, GC or host stall of this length at the paced
// rate, while sustained overload still fills the queue and shows as
// refusals.
const stallBudget = 500 * time.Millisecond

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	commit  string
	out     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the line the benchmark prints last.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var wname string
	flag.StringVar(&wname, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run (paced plus saturated phase)")
	traceFlag := flag.Int("trace", 0, "1 adds a traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit recorded in the run file")
	flag.StringVar(&cfg.out, "out", ".bench_build/results", "directory for run files")
	flag.Parse()
	w, err := lookupWorkload(wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg.w, cfg.trace = w, *traceFlag == 1

	sum, rec, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if path, err := writeRecord(cfg, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing the run file:", err)
		return 1
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: run file", path)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !sum.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs differ from the golden")
		return 1
	}
	return 0
}

// measure runs the untraced assembly and, with -trace 1, the traced
// one and the per-layer measurements.
func measure(cfg config) (summary, map[string]any, error) {
	app, err := apps.ByID(cfg.w.app)
	if err != nil {
		return summary{}, nil, err
	}
	rate := cfg.w.rate
	if rate == 0 {
		rate = pacedShare * declaredRate(app)
	}
	bound := int(math.Ceil(rate * stallBudget.Seconds()))
	hseed := maphash.MakeSeed()
	var pool *inputPool
	if cfg.w.explicit {
		if pool, err = newInputPool(app, cfg.seed, 32); err != nil {
			return summary{}, nil, err
		}
	}
	refs := newReferences(app, hseed)
	p := params{w: cfg.w, rate: rate, bound: bound, seed: cfg.seed, seconds: cfg.seconds, pool: pool, refs: refs, hseed: hseed}

	rec := map[string]any{
		"fingerprint":  fingerprint(cfg),
		"workload":     cfg.w.name,
		"app":          cfg.w.app,
		"backend":      string(cfg.w.backend),
		"paced_fps":    rate,
		"max_inflight": bound,
	}
	untraced, err := runE2E(p, nil)
	if err != nil {
		return summary{}, nil, err
	}
	rec["untraced"] = untraced.raw
	sum := summary{
		Correct:   untraced.mismatches == 0,
		Attempted: untraced.attempted,
		Failed:    untraced.failed,
		Metrics:   untraced.metrics,
	}
	if !cfg.trace {
		return sum, rec, nil
	}
	layers, traced, err := runTraced(p, untraced)
	if err != nil {
		return summary{}, nil, err
	}
	rec["spans"] = traced.raw["spans"]
	delete(traced.raw, "spans")
	rec["traced"] = traced.raw
	rec["layers"] = layers
	sum.Correct = sum.Correct && traced.mismatches == 0
	sum.Attempted += traced.attempted
	sum.Failed += traced.failed
	sum.Metrics = layers
	return sum, rec, nil
}

// declaredRate is the application's real-time input frame rate.
func declaredRate(app *apps.App) float64 {
	r := app.Graph.Inputs()[0].Rate
	return r.Float()
}

type params struct {
	w       workload
	rate    float64
	bound   int
	seed    int64
	seconds float64
	pool    *inputPool
	refs    *references
	hseed   maphash.Seed
}

// e2e is one assembly's run: its end-to-end metrics and raw samples.
type e2e struct {
	metrics    map[string]metric
	raw        map[string]any
	attempted  int
	failed     int
	mismatches int
	lg         *loadgen
	warm       int
	// paced sums the counters over the paced slices.
	paced counters
	// liveAfterClose is the window arena's live count once the
	// assembly is torn down.
	liveAfterClose int64
}

// counters holds the process and probe counters at one instant, or
// their change over an interval.
type counters struct {
	// steal and ticks are the host's CPU time taken from this VM and
	// all CPU time, in clock ticks (/proc/stat).
	steal, ticks int64
	cpu          time.Duration
	allocs       int64
	poolGets     int64
	poolHits     int64
	wireBytes    int64
	wireWrites   int64
	wireReads    int64
	relayBytes   int64
	relayWrites  int64
	httpRead     int64
	httpWritten  int64
}

func readCounters(tr *tracer) counters {
	ps := frame.Stats()
	c := counters{cpu: cpuTime(), allocs: int64(heapAllocs()), poolGets: ps.Gets, poolHits: ps.Hits}
	c.steal, c.ticks = hostTicks()
	if tr != nil {
		c.wireBytes, c.wireWrites, c.wireReads = tr.wire.bytes.Load(), tr.wire.writes.Load(), tr.wire.reads.Load()
		c.relayBytes, c.relayWrites = tr.wire.relay()
		c.httpRead, c.httpWritten = tr.http.read.Load(), tr.http.written.Load()
	}
	return c
}

// add returns c + sign·o, field by field.
func (c counters) add(o counters, sign int64) counters {
	return counters{
		steal:       c.steal + sign*o.steal,
		ticks:       c.ticks + sign*o.ticks,
		cpu:         c.cpu + time.Duration(sign)*o.cpu,
		allocs:      c.allocs + sign*o.allocs,
		poolGets:    c.poolGets + sign*o.poolGets,
		poolHits:    c.poolHits + sign*o.poolHits,
		wireBytes:   c.wireBytes + sign*o.wireBytes,
		wireWrites:  c.wireWrites + sign*o.wireWrites,
		wireReads:   c.wireReads + sign*o.wireReads,
		relayBytes:  c.relayBytes + sign*o.relayBytes,
		relayWrites: c.relayWrites + sign*o.relayWrites,
		httpRead:    c.httpRead + sign*o.httpRead,
		httpWritten: c.httpWritten + sign*o.httpWritten,
	}
}

// A run splits -seconds into equal cycles of at most maxCycle, each a
// paced slice (60%) then a saturated slice (40%). Each end-to-end
// metric comes from the slices in which the host stole at most
// calmSteal of the CPU time, and at least from the calmer half
// (calmest), so a burst of host noise spoils slices that are set aside,
// not the run. When fewer than half of the slices were calm, the run
// goes on looking for calm slices until extendTo times -seconds have
// passed (the traced run does not); the cap keeps a benchmark of many
// runs within a fixed time on a host that stays noisy for minutes.
const (
	maxCycle  = 2500 * time.Millisecond
	calmSteal = 0.02
	extendTo  = 1.25
)

// runE2E assembles the system (setupRuns times untraced, once traced),
// then runs warm-up and alternating paced and saturated slices on one
// session, tears it down and verifies every collected frame.
func runE2E(p params, tr *tracer) (*e2e, error) {
	runs := setupRuns
	if tr != nil {
		runs = 1
	}
	var setups []float64
	var a *assembly
	for i := 0; i < runs; i++ {
		if a != nil {
			a.close()
		}
		var err error
		if a, err = assemble(p.w, p.bound, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, a.setup.Seconds())
	}
	lg := newLoadgen(a, p.pool, p.bound, p.hseed)

	// Warm-up: the workload's closed-loop frames plus a seed-chosen
	// offset, so the measured frames' sequence numbers (and with them
	// the server-generated inputs) depend on the seed.
	warm := p.w.warm + int((p.seed%32+32)%32)
	lg.saturate(warmup, warm, time.Minute)

	if tr != nil {
		captured := 0
		lg.onCollect = func(c collected) {
			if c.phase == paced {
				if captured++; captured == captureFrames {
					tr.wire.capturing.Store(false)
				}
			}
		}
		tr.wire.capturing.Store(true)
	}
	cycles := max(2, int(math.Ceil(p.seconds/maxCycle.Seconds())))
	cycle := time.Duration(p.seconds / float64(cycles) * float64(time.Second))
	pacedDur := time.Duration(0.6 * float64(cycle))
	satDur := cycle - pacedDur
	keep := (cycles + 1) / 2
	limit := time.Now().Add(time.Duration(extendTo * p.seconds * float64(time.Second)))
	var pacedBy []counters
	var pacedSum counters
	var pacedSteal, satSteal []float64
	for i := 0; i < cycles || (tr == nil && time.Now().Before(limit) && min(calmCount(pacedSteal), calmCount(satSteal)) < keep); i++ {
		lg.slice = i
		c0 := readCounters(tr)
		lg.pace(paced, p.rate, 0, pacedDur)
		c1 := readCounters(tr)
		pacedBy = append(pacedBy, c1.add(c0, -1))
		pacedSum = pacedSum.add(pacedBy[i], 1)
		if tr != nil {
			tr.wire.capturing.Store(false)
		}
		lg.saturate(saturated, 0, satDur)
		pacedSteal = append(pacedSteal, pacedBy[i].stealShare())
		satSteal = append(satSteal, readCounters(tr).add(c1, -1).stealShare())
	}
	lg.stop()
	a.close()
	live := frame.Stats().Live

	mismatches, err := lg.verify(p.refs)
	if err != nil {
		return nil, err
	}
	attempted, failed := lg.counts()
	var p50, p90, cpu, allocs, tput []float64
	for i := range pacedBy {
		lat := lg.latencies(paced, i)
		frames := float64(max(lg.goodFrames(paced, i), 1))
		p50 = append(p50, capInf(percentile(lat, 0.5), ms(pacedDur)))
		p90 = append(p90, capInf(percentile(lat, 0.9), ms(pacedDur)))
		cpu = append(cpu, ms(pacedBy[i].cpu)/frames)
		allocs = append(allocs, float64(pacedBy[i].allocs)/frames)
		tput = append(tput, lg.throughput(i))
	}
	// The paced metrics pool the frames of the calm paced slices; the
	// throughput averages the calm saturated slices, all equally long.
	var lat []float64
	var calmPaced counters
	calmFrames := 0
	pacedKept := calmest(pacedSteal, max(keep, calmCount(pacedSteal)))
	for _, i := range pacedKept {
		lat = append(lat, lg.latencies(paced, i)...)
		calmPaced = calmPaced.add(pacedBy[i], 1)
		calmFrames += lg.goodFrames(paced, i)
	}
	satKept := calmest(satSteal, max(keep, calmCount(satSteal)))
	var tputSum float64
	for _, i := range satKept {
		tputSum += tput[i]
	}
	frames := float64(max(calmFrames, 1))
	m := map[string]metric{
		"throughput_fps":   {tputSum / float64(len(satKept)), "fps"},
		"latency_p50_ms":   {capInf(percentile(lat, 0.5), ms(pacedDur)), "ms"},
		"latency_p90_ms":   {capInf(percentile(lat, 0.9), ms(pacedDur)), "ms"},
		"cpu_ms_per_frame": {ms(calmPaced.cpu) / frames, "ms"},
		"allocs_per_frame": {float64(calmPaced.allocs) / frames, "count"},
		"rss_peak_mb":      {rssPeakMB(), "MB"},
		"setup_s":          {median(setups), "s"},
		"success_ratio":    {1 - float64(failed)/float64(max(attempted, 1)), "ratio"},
	}
	raw := map[string]any{
		"metrics": m,
		"setup_s": setups,
		"slices": map[string][]float64{
			"latency_p50_ms": p50, "latency_p90_ms": p90, "cpu_ms_per_frame": cpu, "allocs_per_frame": allocs, "throughput_fps": tput,
			"paced_steal_share": pacedSteal, "saturated_steal_share": satSteal,
		},
		"kept_slices":      map[string][]int{"paced": pacedKept, "saturated": satKept},
		"paced_latency_ms": finiteOrNull(lg.latencies(paced, -1)),
		"paced_lag_ms":     lg.lags(paced),
		"paced_frames":     lg.goodFrames(paced, -1),
		"saturated_frames": lg.goodFrames(saturated, -1),
		"warmup_frames":    warm,
		"attempted":        attempted,
		"failed":           failed,
		"error_ratio":      float64(failed) / float64(max(attempted, 1)),
		"mismatches":       mismatches,
		"failures":         failureLog(lg),
	}
	return &e2e{
		metrics: m, raw: raw, attempted: attempted, failed: failed, mismatches: mismatches,
		lg: lg, warm: warm, paced: pacedSum, liveAfterClose: live,
	}, nil
}

// captureFrames is how many paced frames' wire traffic the traced run
// keeps for timing the codec.
const captureFrames = 48

func capInf(v, limit float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return limit
	}
	return v
}

// finiteOrNull keeps a latency sample JSON-encodable: failed frames
// (+Inf) become null.
func finiteOrNull(xs []float64) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			out[i] = x
		}
	}
	return out
}

func failureLog(lg *loadgen) []string {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var out []string
	for _, r := range lg.refusals {
		out = append(out, fmt.Sprintf("%s feed: status %d %s", r.phase, r.status, r.err))
	}
	for _, c := range lg.results {
		if !c.ok {
			out = append(out, fmt.Sprintf("%s collect of frame %d: status %d %s", c.phase, c.seq, c.status, c.err))
		}
	}
	return out
}

// hostTicks returns the steal and total clock ticks of all CPUs from
// /proc/stat: the time the hypervisor ran something else while this VM
// had work, and all time. It returns zeros where it cannot read them.
func hostTicks() (steal, total int64) {
	line, err := procField("/proc/stat", "cpu ")
	if err != nil {
		return 0, 0
	}
	for i, f := range strings.Fields(line) {
		if i > 7 { // guest time is already counted in user time
			break
		}
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func (c counters) stealShare() float64 {
	if c.ticks <= 0 {
		return 0
	}
	return float64(c.steal) / float64(c.ticks)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rssPeakMB is the process's peak resident set (VmHWM), in MiB.
func rssPeakMB() float64 {
	v, _ := procField("/proc/self/status", "VmHWM:")
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	return kb / 1024
}

// procField returns the trimmed value of the first line of a /proc
// file that starts with key.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":")), nil
		}
	}
	return "", errors.New(key + " not found in " + path)
}

// fingerprint records the machine and build a run happened on.
func fingerprint(cfg config) map[string]any {
	cpu, _ := procField("/proc/cpuinfo", "model name")
	return map[string]any{
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         goruntime.Version(),
		"goos":       goruntime.GOOS,
		"goarch":     goruntime.GOARCH,
		"commit":     cfg.commit,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// writeRecord writes the run's fingerprint, metrics and raw samples.
func writeRecord(cfg config, rec map[string]any) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d-%d", cfg.w.name, cfg.seed, b2i(cfg.trace), time.Now().UnixNano())
	if spans, ok := rec["spans"].([]traceEvent); ok {
		delete(rec, "spans")
		if err := writeChromeTrace(filepath.Join(cfg.out, base+".trace.json"), spans); err != nil {
			return "", err
		}
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(cfg.out, base+".json")
	return path, os.WriteFile(path, data, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
