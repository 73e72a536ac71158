package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	fast "github.com/fastfhe/fast"
)

// sim-tables: repeated sweeps of fast.Simulate over the paper's workloads x
// accelerators x plan modes (4 x 7 x 4 = 112 calls per sweep) on one
// goroutine. No FHE, HTTP or disk: this is the paper-reproduction path, and
// every simulated statistic is exactly repeatable, so each call is checked
// bit for bit against golden/sim_tables.json, recorded with -record-golden
// from the simulator this benchmark was added alongside.

//go:embed golden/sim_tables.json
var simGoldenJSON []byte

const goldenPath = "fastbench/golden/sim_tables.json"

// simCase is one (workload, accelerator, mode) cell of a sweep.
type simCase struct {
	key  string // "<workload>/<accelerator>/<mode>"
	tag  string // workload metric suffix
	w    fast.Workload
	acc  fast.Accelerator
	mode fast.PlanMode
}

var planModes = []struct {
	name string
	mode fast.PlanMode
}{{"auto", fast.PlanAuto}, {"oneksw", fast.PlanOneKSW}, {"hoisting", fast.PlanHoisting}, {"aether", fast.PlanAether}}

// simCases builds the sweep: trace construction is part of set-up.
func simCases() []simCase {
	ws := []struct {
		tag string
		w   fast.Workload
	}{
		{"bootstrap", fast.BootstrapWorkload()},
		{"helr256", fast.HELRWorkload(256)},
		{"helr1024", fast.HELRWorkload(1024)},
		{"resnet20", fast.ResNet20Workload()},
	}
	accs := []fast.Accelerator{
		fast.SHARPAccelerator(), fast.SHARPLMAccelerator(), fast.SHARP8CAccelerator(),
		fast.SHARPLM8CAccelerator(), fast.FASTAccelerator(), fast.FASTNoTBMAccelerator(),
		fast.FAST36Accelerator(),
	}
	var out []simCase
	for _, w := range ws {
		for _, acc := range accs {
			for _, m := range planModes {
				out = append(out, simCase{
					key: w.w.Name() + "/" + acc.Name() + "/" + m.name,
					tag: w.tag, w: w.w, acc: acc, mode: m.mode,
				})
			}
		}
	}
	return out
}

// simStats flattens every simulated statistic of a report.
func simStats(r *fast.Report) map[string]float64 {
	s := map[string]float64{
		"time_ms": r.TimeMS, "cycles": r.Cycles, "energy_j": r.EnergyJ, "avg_power_w": r.AvgPowerW,
		"edp": r.EDP, "evk_traffic_mb": r.EvkTrafficMB, "hbm_util": r.HBMUtil, "nttu_util": r.NTTUUtil,
		"bconvu_util": r.BConvUUtil, "kmu_util": r.KMUUtil, "hybrid_cycles": r.HybridCycles,
		"klss_cycles": r.KLSSCycles, "total_mod_ops": r.TotalModOps, "kernel_ntt": r.KernelNTT,
		"kernel_bconv": r.KernelBConv, "kernel_keymult": r.KernelKeyMult, "kernel_other": r.KernelOther,
	}
	for phase, cy := range r.PhaseCycles {
		s["phase_cycles."+phase] = cy
	}
	return s
}

// goldenMismatch names the first statistic that is not bit-equal ("" when
// all are).
func goldenMismatch(want, got map[string]float64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d statistics, golden has %d", len(got), len(want))
	}
	for _, k := range sortedKeys(want) {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(want[k]) {
			return fmt.Sprintf("%s = %v, golden %v", k, g, want[k])
		}
	}
	return ""
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func loadGolden() (map[string]map[string]float64, error) {
	var g map[string]map[string]float64
	if err := json.Unmarshal(simGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parse sim golden: %w", err)
	}
	return g, nil
}

// recordSimGolden rewrites the golden file from this checkout's simulator.
func recordSimGolden(path string) error {
	g := map[string]map[string]float64{}
	for _, c := range simCases() {
		r, err := fast.Simulate(c.w, c.acc, c.mode)
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		g[c.key] = simStats(r)
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// simSweepChecked runs one sweep and checks it against the golden file.
func simSweepChecked(cases []simCase, golden map[string]map[string]float64) (simulatedMS float64, err error) {
	for _, c := range cases {
		r, err := fast.Simulate(c.w, c.acc, c.mode)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.key, err)
		}
		if p := goldenMismatch(golden[c.key], simStats(r)); p != "" {
			return 0, fmt.Errorf("%s differs from golden: %s", c.key, p)
		}
		simulatedMS += r.TimeMS
	}
	return simulatedMS, nil
}

func runSimTables(cfg *runConfig) (*outcome, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	var cases []simCase
	var setups []float64
	var simulatedMS float64
	for i := 0; i < setupRepeats(cfg); i++ {
		t0 := time.Now()
		cases = simCases()
		if simulatedMS, err = simSweepChecked(cases, golden); err != nil {
			return nil, fmt.Errorf("sim-tables set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	o := &outcome{}
	if !cfg.trace {
		w := simWindow(cases, golden, cfg.seconds, nil)
		rss, err := vmHWM("self")
		if err != nil {
			return nil, err
		}
		setEndToEnd(o, w, quantile(setups, 0.5), rss)
		setCellLatencies(o, w.cells)
		return o, nil
	}

	untraced := simWindow(cases, golden, cfg.seconds/2, nil)
	w := simWindow(cases, golden, cfg.seconds/2, cfg.spans)
	o.attempted = untraced.attempted + w.attempted
	o.failed = untraced.failed + w.failed
	o.problems = append(append(o.problems, untraced.problems...), w.problems...)
	setLayerDefaults(o)
	if err := simLayers(o, cfg, cases, simulatedMS); err != nil {
		return nil, err
	}

	// The op is the Simulate call; its client-side check is the root span's
	// self time.
	simMean := spanMean(cfg.spans, "sim.simulate")
	o.set("layer.sim_ms", "ms", simMean)
	o.set("trace.unattributed_ms", "ms", spanMean(cfg.spans, "op")-simMean)
	o.set("trace.overhead_ms", "ms", mean(w.lats)-mean(untraced.lats))
	o.set("loadgen.client_cpu_share", "ratio", w.cpu.Seconds()/(w.elapsed.Seconds()*float64(runtime.NumCPU())))
	setSelfTimes(o, cfg.spans, float64(w.attempted))
	return o, nil
}

// simWindow runs whole sweeps until secs have passed, timing each call.
// Whole sweeps keep the mix of traces the same in every run.
func simWindow(cases []simCase, golden map[string]map[string]float64, secs float64, spans *spanLog) *windowResult {
	start := time.Now()
	w := &windowResult{cells: make([][]float64, len(cases))}
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	cpu0 := cpuTime()
	for op := 0; op%len(cases) != 0 || time.Now().Before(deadline); op++ {
		c := cases[op%len(cases)]
		t0 := time.Now()
		root := spans.begin("op", -1, op, t0)
		sid := spans.begin("sim.simulate."+c.tag, root, op, t0)
		r, err := fast.Simulate(c.w, c.acc, c.mode)
		t1 := time.Now()
		spans.end(sid, t1)
		problem := ""
		if err != nil {
			problem = fmt.Sprintf("%s: %v", c.key, err)
		} else if p := goldenMismatch(golden[c.key], simStats(r)); p != "" {
			problem = fmt.Sprintf("%s differs from golden: %s", c.key, p)
		}
		spans.end(root, time.Now())
		w.record(t1.Sub(t0), problem == "", problem)
		w.cells[op%len(cases)] = append(w.cells[op%len(cases)], ms(t1.Sub(t0)))
	}
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	return w
}

// setCellLatencies replaces the pooled latency metrics with statistics of
// the sweep: each of the 112 cells is one deterministic computation called
// about fifty times a run, so its median call time is its cost with host
// noise filtered out. The quantiles are taken over the cells' medians and
// ops_per_s is the sweep rate at those medians. Pooling every call let host
// slowdowns into the tail: over ten runs on a noisy 2-vCPU host the pooled
// p99 spread 0.29 (interquartile range over median), the cell-median p99
// 0.18.
func setCellLatencies(o *outcome, cells [][]float64) {
	meds := make([]float64, len(cells))
	var sweepMS float64
	for i, c := range cells {
		meds[i] = quantile(c, 0.5)
		sweepMS += meds[i]
	}
	o.set("ops_per_s", "1/s", float64(len(cells))/(sweepMS/1000))
	o.set("op_p50_ms", "ms", quantile(meds, 0.50))
	o.set("op_p90_ms", "ms", quantile(meds, 0.90))
	o.set("op_p99_ms", "ms", quantile(meds, 0.99))
	o.samples = len(cells)
	fmt.Fprintf(os.Stderr, "fastbench: latency quantiles over %d sweep cells' median call times\n", o.samples)
}

// spanMean is the mean duration in ms of the spans whose name starts with
// prefix.
func spanMean(l *spanLog, prefix string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total time.Duration
	n := 0
	for _, s := range l.spans {
		if !s.End.IsZero() && strings.HasPrefix(s.Name, prefix) {
			total += s.End.Sub(s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// simLayers fills the simulator's per-layer metrics: per-trace host time
// from the traced window, Aether analysis time, allocation counts of one
// sweep, and the observed counters of one SimulateObserved sweep.
func simLayers(o *outcome, cfg *runConfig, cases []simCase, simulatedMS float64) error {
	o.set("sim.simulate_ms", "ms", spanMean(cfg.spans, "sim.simulate"))
	for _, tag := range []string{"bootstrap", "helr256", "helr1024", "resnet20"} {
		o.set("sim.simulate_ms."+tag, "ms", spanMean(cfg.spans, "sim.simulate."+tag))
	}
	o.set("sim.simulated_ms_sum", "ms", simulatedMS)

	// Aether analysis once per (workload, accelerator) pair.
	var analyze time.Duration
	n := 0
	for _, c := range cases {
		if c.mode != fast.PlanAuto {
			continue
		}
		var err error
		analyze += cfg.spans.timed("sim.aether_analyze", -1, -1, func() { _, err = fast.PlanWorkload(c.w, c.acc) })
		if err != nil {
			return fmt.Errorf("PlanWorkload %s: %w", c.key, err)
		}
		n++
	}
	o.set("aether.analyze_ms", "ms", ms(analyze)/float64(n))

	// Allocation counts of one sweep, per call. Nothing else runs on this
	// goroutine and fastbench starts no other, so the counts are exact.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range cases {
		if _, err := fast.Simulate(c.w, c.acc, c.mode); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	o.set("sim.allocs", "count", float64(after.Mallocs-before.Mallocs)/float64(len(cases)))
	o.set("sim.alloc_bytes", "B", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(cases)))

	ob := fast.NewObserver()
	for _, c := range cases {
		if _, err := fast.SimulateObserved(c.w, c.acc, c.mode, ob); err != nil {
			return err
		}
	}
	ctr := ob.Metrics().Counters
	hits, misses := float64(ctr["hemera.pool.hits"]), float64(ctr["hemera.pool.misses"])
	o.set("hemera.pool_hit_ratio", "ratio", ratio(hits, hits+misses))
	for _, d := range []string{"hybrid", "klss", "hoisted"} {
		o.set("aether.decision."+d, "count", float64(ctr["aether.decision."+d]))
	}
	return nil
}
