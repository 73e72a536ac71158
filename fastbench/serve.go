package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	fast "github.com/fastfhe/fast"
)

// windowResult is one measured window.
type windowResult struct {
	mu        sync.Mutex
	lats      []float64 // ms, successful ops
	attempted int
	failed    int
	problems  []string
	gaps      []float64 // ms, per caller: next send minus previous response read
	reqBytes  int64
	respBytes int64
	elapsed   time.Duration
	cpu       time.Duration // fastbench's CPU time during the window
	samples   []*jobSample  // traced windows: inputs kept for the replay
	cells     [][]float64   // sim-tables: ms of every call, per sweep cell
}

func (w *windowResult) record(lat time.Duration, ok bool, problem string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	switch {
	case !ok:
		w.failed++
		if problem != "" && len(w.problems) < 10 {
			w.problems = append(w.problems, problem)
		}
	default:
		w.lats = append(w.lats, ms(lat))
	}
}

// layerShares is the per-op time each layer accounts for in a served op.
// trace.unattributed_ms is the client's mean op latency minus their sum.
type layerShares struct {
	codec, plan, serve, exec, persist float64
}

// opResult is one op of a closed loop: when its last response was read, its
// verdict, its bytes and, in traced windows, the inputs kept for the replay.
type opResult struct {
	done           time.Time
	ok             bool
	problem        string
	sent, received int64
	sample         *jobSample
}

// closedLoop runs callers goroutines that each send their next op as soon as
// their previous one is done, until secs have passed. op(c, i, root) runs op
// i on caller c under the root span.
func closedLoop(secs float64, spans *spanLog, callers int, op func(c, i, root int) opResult) *windowResult {
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	w := &windowResult{}
	cpu0 := cpuTime()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var prev time.Time
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				t0 := time.Now()
				root := spans.begin("op", -1, i, t0)
				r := op(c, i, root)
				spans.end(root, time.Now())
				w.record(r.done.Sub(t0), r.ok, r.problem)
				w.mu.Lock()
				if !prev.IsZero() {
					w.gaps = append(w.gaps, ms(t0.Sub(prev)))
				}
				w.reqBytes += r.sent
				w.respBytes += r.received
				if r.sample != nil {
					w.samples = append(w.samples, r.sample)
				}
				w.mu.Unlock()
				prev = r.done
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	return w
}

// setupRepeats is how many times a run sets up from scratch; setup_s is the
// median, and the last set-up daemon serves the run.
func setupRepeats(cfg *runConfig) int {
	if cfg.smoke {
		return 1
	}
	return 5
}

func runServeDurable(cfg *runConfig) (*outcome, error) {
	wl := &durable{}
	if cfg.fastd == "" {
		return nil, fmt.Errorf("%s needs -fastd", cfg.workload)
	}
	if err := wl.prepare(cfg); err != nil {
		return nil, err
	}
	var d *daemon
	var setups []float64
	for i := 0; i < setupRepeats(cfg); i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startFastd(cfg, filepath.Join(cfg.tmp, fmt.Sprintf("fastd-%d", i))); err != nil {
			return nil, err
		}
		if err := wl.setup(d); err != nil {
			d.stop()
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	// The session set-up used last is resident.
	if err := fillSpanBuffer(d, wl.sessions[len(wl.sessions)-1]); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", cfg.workload, err)
	}
	if !cfg.smoke {
		if w := wl.window(d, warmLoadSeconds, nil); w.failed > 0 {
			return nil, fmt.Errorf("%s warm-up: %d of %d ops failed: %v", cfg.workload, w.failed, w.attempted, w.problems)
		}
	}

	o := &outcome{}
	if !cfg.trace {
		w := wl.window(d, cfg.seconds, nil)
		rss, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		setEndToEnd(o, w, quantile(setups, 0.5), rss)
		generatorLag(o, w)
		return o, nil
	}

	// Traced run: an untraced half, then a traced half bracketed by /metrics
	// scrapes, then the replay. Only the traced half feeds the layer metrics.
	untraced := wl.window(d, cfg.seconds/2, nil)
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	stateDir := filepath.Join(d.dir, "state")
	stateBefore := dirBytes(stateDir)
	w := wl.window(d, cfg.seconds/2, cfg.spans)
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	stateGrowth := dirBytes(stateDir) - stateBefore

	o.attempted = untraced.attempted + w.attempted
	o.failed = untraced.failed + w.failed
	o.problems = append(append(o.problems, untraced.problems...), w.problems...)
	setLayerDefaults(o)
	ops := float64(w.attempted)
	var m layerShares
	setServerLayers(o, delta(before, after), ops, &m)
	o.set("persist.state_bytes", "B/op", float64(stateGrowth)/ops)
	o.set("http.req_bytes", "B/op", float64(w.reqBytes)/ops)
	o.set("http.resp_bytes", "B/op", float64(w.respBytes)/ops)
	if err := wl.replay(cfg, d, w, o, &m); err != nil {
		return nil, err
	}
	setHarness(o, cfg, w, untraced, m)
	return o, nil
}

// fastd records spans into an always-on buffer of 64 Ki events and drops
// events once it is full. Until then its heap grows with every op and its
// latency tail climbs with it: under a closed loop of 2 callers sending
// hoisted-rotation evals, p99 over 5 s slices rose from about 25 to 35 ms
// over a fresh daemon's first 45 s while its RSS grew from 63 to 120 MB, and
// then stayed level. How far a timed window got up that climb depended on
// how fast the host ran it. fillSpanBuffer brings each served run's daemon
// to the steady state first: it runs a program of cheap ops, one span each,
// until fastd reports its first dropped span. A daemon without the buffer
// (no obs_trace_dropped series) is left as it is.
//
// Latency still runs high for a few seconds after the fill, so
// warmLoadSeconds of the workload's own load follow it, unmeasured.
const (
	warmAdds        = 256 // adds per fill eval, on a level-0 ciphertext
	warmLimit       = 60 * time.Second
	warmLoadSeconds = 4
)

func fillSpanBuffer(d *daemon, session string) error {
	m, err := d.scrape()
	if err != nil {
		return err
	}
	if _, ok := m["obs_trace_dropped"]; !ok {
		return nil
	}
	base := "/v1/sessions/" + session
	enc, err := json.Marshal(wireValues{Values: []wireComplex{{Re: 0.5}}})
	if err != nil {
		return err
	}
	resp, err := d.postJSON(base+"/encrypt", enc)
	if err != nil {
		return err
	}
	// One eval takes x to level 0, where an add costs least and holds least
	// memory, so the fill never sets fastd's peak RSS.
	down := fast.NewProgram().In("x")
	last := "x"
	for i := 0; i < newSessionParams(0).Levels; i++ {
		next := fmt.Sprintf("l%d", i)
		down.MulConst(next, last, 1)
		last = next
	}
	body, err := evalBody(down.Return(last), resp)
	if err != nil {
		return err
	}
	if resp, err = d.postJSON(base+"/eval", body); err != nil {
		return err
	}
	fill := fast.NewProgram().In("x")
	last = "x"
	for i := 0; i < warmAdds; i++ {
		next := fmt.Sprintf("s%d", i)
		fill.Add(next, last, "x")
		last = next
	}
	if body, err = evalBody(fill.Return(last), resp); err != nil {
		return err
	}
	start := time.Now()
	for evals := 0; ; evals++ {
		if m, err = d.scrape(); err != nil {
			return err
		}
		if m["obs_trace_dropped"] > 0 {
			fmt.Fprintf(os.Stderr, "fastbench: fastd's span buffer full after %d warm-up evals, %.1fs\n",
				evals, time.Since(start).Seconds())
			return nil
		}
		if time.Since(start) > warmLimit {
			return fmt.Errorf("fastd's span buffer not full after %d warm-up evals, %s", evals, warmLimit)
		}
		if _, err := d.postJSON(base+"/eval", body); err != nil {
			return err
		}
	}
}

// evalBody is an /eval request running prog on the ciphertext of a fastd
// ciphertext response.
func evalBody(prog *fast.Program, resp []byte) ([]byte, error) {
	ct, err := ciphertextField(resp)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(prog)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireEval{Inputs: map[string]string{"x": string(ct)}, Program: raw})
}

// setEndToEnd fills the end-to-end metrics from an untraced window.
func setEndToEnd(o *outcome, w *windowResult, setupS, rssMB float64) {
	o.attempted, o.failed = w.attempted, w.failed
	o.problems = append(o.problems, w.problems...)
	o.set("setup_s", "s", setupS)
	o.set("ops_per_s", "1/s", float64(w.attempted-w.failed)/w.elapsed.Seconds())
	lats := append([]float64(nil), w.lats...)
	o.set("op_p50_ms", "ms", quantile(lats, 0.50))
	o.set("op_p90_ms", "ms", quantile(lats, 0.90))
	o.set("op_p99_ms", "ms", quantile(lats, 0.99))
	o.set("ok_ratio", "ratio", float64(w.attempted-w.failed)/float64(w.attempted))
	o.set("peak_rss_mb", "MiB", rssMB)
	o.samples = len(w.lats)
	fmt.Fprintf(os.Stderr, "fastbench: p99 from %d samples\n", o.samples)
}

// delta returns after-before for every series.
func delta(before, after map[string]float64) func(names ...string) float64 {
	return func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += after[n] - before[n]
		}
		return s
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setServerLayers derives the per-op layer metrics from fastd's own
// counters and histograms over the traced window.
func setServerLayers(o *outcome, d func(...string) float64, ops float64, m *layerShares) {
	hits, misses := d("serve_plan_cache_hits"), d("serve_plan_cache_misses")
	o.set("plan_cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	o.set("plan_cache.misses", "1/op", misses/ops)
	o.set("serve.admission_wait_ms", "ms", ratio(d("serve_admission_wait_ns_sum"), d("serve_admission_wait_ns_count"))/1e6)
	o.set("serve.service_ms", "ms", ratio(d("serve_service_ns_sum"), d("serve_service_ns_count"))/1e6)
	o.set("serve.batch_size_mean", "count", ratio(d("serve_batch_size_sum"), d("serve_batch_size_count")))
	o.set("serve.rejected", "1/op", d("serve_rejected_queue_full", "serve_rejected_breaker",
		"serve_rejected_draining", "serve_shed_deadline")/ops)
	m.serve = d("serve_admission_wait_ns_sum") / 1e6 / ops

	ks := func(method, phase string) string { return "ckks_keyswitch_" + method + "_" + phase + "_ns" }
	count := d(ks("hybrid", "modup")+"_count", ks("klss", "modup")+"_count")
	o.set("keyswitch.count", "1/op", count/ops)
	for _, phase := range []string{"modup", "keymult", "moddown"} {
		o.set("keyswitch."+phase+"_ms", "ms", d(ks("hybrid", phase)+"_sum", ks("klss", phase)+"_sum")/1e6/ops)
	}
	o.set("keyswitch.klss_share", "ratio", ratio(d(ks("klss", "modup")+"_count"), count))
	o.set("ckks.encrypt_ms", "ms", ratio(d("ckks_encrypt_latency_ns_sum"), d("ckks_encrypt_latency_ns_count"))/1e6)
	var gets, poolMisses float64
	for _, pool := range []string{"evaluator", "keyswitch_hybrid", "keyswitch_klss"} {
		gets += d("ring_pool_" + pool + "_gets")
		poolMisses += d("ring_pool_" + pool + "_misses")
	}
	o.set("ring.pool_miss_ratio", "ratio", ratio(poolMisses, gets))
	o.set("sessions.restored", "1/op", d("sessions_restored")/ops)
	o.set("sessions.evicted", "1/op", d("sessions_evicted")/ops)
	o.set("idem.recorded", "1/op", d("fastd_idem_recorded")/ops)
}

// generatorLag returns the p99 of the callers' gaps between reading a
// response and sending the next request, and fastbench's share of the CPUs.
// It marks the run invalid when either shows the generator, not fastd, set
// the pace: a mean gap above maxGapShare of the mean op latency, or the
// fastbench using more than maxClientCPUShare of the CPUs.
func generatorLag(o *outcome, w *windowResult) (gapP99, cpuShare float64) {
	if len(w.gaps) > 0 {
		gapP99 = quantile(append([]float64(nil), w.gaps...), 0.99)
	}
	if gap, lat := mean(w.gaps), mean(w.lats); gap > maxGapShare*lat {
		o.problem("load generator lagged: mean gap between ops %.2f ms > %.0f%% of the mean op latency %.2f ms",
			gap, maxGapShare*100, lat)
	}
	cpuShare = w.cpu.Seconds() / (w.elapsed.Seconds() * float64(runtime.NumCPU()))
	if cpuShare > maxClientCPUShare {
		o.problem("load generator used %.0f%% of the CPUs (> %.0f%%)", cpuShare*100, maxClientCPUShare*100)
	}
	return gapP99, cpuShare
}

// setHarness fills the load-generator and trace-accounting metrics.
func setHarness(o *outcome, cfg *runConfig, w, untraced *windowResult, m layerShares) {
	gap, share := generatorLag(o, w)
	o.set("loadgen.gap_p99_ms", "ms", gap)
	o.set("loadgen.client_cpu_share", "ratio", share)
	opMean := mean(w.lats)
	o.set("trace.overhead_ms", "ms", opMean-mean(untraced.lats))
	for name, v := range map[string]float64{"codec": m.codec, "plan": m.plan, "serve": m.serve,
		"exec": m.exec, "persist": m.persist} {
		o.set("layer."+name+"_ms", "ms", v)
	}
	o.set("trace.unattributed_ms", "ms", opMean-(m.codec+m.plan+m.serve+m.exec+m.persist))
	setSelfTimes(o, cfg.spans, float64(w.attempted))
}

const (
	maxGapShare       = 0.1
	maxClientCPUShare = 0.5
)

// setSelfTimes reports each layer's span self time per op: client and http
// spans over the traced window's ops, replay spans (job >= replayJobBase)
// over the replayed ops.
func setSelfTimes(o *outcome, spans *spanLog, windowOps float64) {
	replayed := map[int]bool{}
	spans.mu.Lock()
	for _, s := range spans.spans {
		if s.Job >= replayJobBase {
			replayed[s.Job] = true
		}
	}
	spans.mu.Unlock()
	window := spans.selfTimes(func(s span) bool { return s.Job >= 0 && s.Job < replayJobBase })
	replay := spans.selfTimes(func(s span) bool { return s.Job >= replayJobBase })
	for _, layer := range selfLayers {
		v := ms(window[layer]) / math.Max(windowOps, 1)
		if n := len(replayed); n > 0 {
			v += ms(replay[layer]) / float64(n)
		}
		o.set("self."+layer+"_ms", "ms", v)
	}
}

// replayJobBase offsets replayed op ids from the window's op ids.
const replayJobBase = 1 << 30

var selfLayers = []string{"client", "http", "codec", "plan", "exec", "persist", "sim"}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the files under dir (0 when absent).
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// checkSlots compares decrypted slots with the plaintext result.
func checkSlots(got []wireComplex, want []float64, tol float64) string {
	if len(got) < len(want) {
		return fmt.Sprintf("decrypt returned %d slots, want %d", len(got), len(want))
	}
	for i, w := range want {
		if math.Abs(got[i].Re-w) > tol || math.Abs(got[i].Im) > tol {
			return fmt.Sprintf("slot %d = %g%+gi, want %g (tolerance %g)", i, got[i].Re, got[i].Im, w, tol)
		}
	}
	return ""
}

// classify sorts an HTTP outcome: ok, refused by the degradation ladder
// (failed, not wrong), or an error that invalidates the run.
func classify(status int, err error) (ok bool, problem string) {
	switch {
	case err != nil:
		return false, err.Error()
	case status == http.StatusOK:
		return true, ""
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout:
		return false, ""
	default:
		return false, fmt.Sprintf("HTTP %d", status)
	}
}
