// Command fastbench is the repository's end-to-end benchmark. It runs one
// workload per invocation:
//
//   - serve-durable spawns the fastd binary built from the same checkout and
//     drives it over HTTP;
//   - sim-tables calls the public fast simulator API in-process.
//
// Every output is checked. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}: with -trace 0 the metrics are
// the end-to-end ones, with -trace 1 the per-layer ones (BENCHMARK.json at the
// repository root lists both). A line before it carries the environment
// stamp. Usage:
//
//	bash fastbench/run.sh --workload serve-durable --seed 1 --seconds 30 --trace 0
//	bash fastbench/run.sh compare OLD.json NEW.json
//
// run.sh builds fastd and this program into .bench_build and passes -root and
// -fastd. See README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	root     string // repository checkout holding BENCHMARK.json
	fastd    string // fastd binary built from the same checkout
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	tmp      string // per-run scratch directory under .bench_build
	spans    *spanLog
}

// outcome is what a workload hands back: its metrics, its op accounting and
// every reason the run is not valid.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	samples           int // untraced runs: op latencies behind the quantiles
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*runConfig) (*outcome, error){
	"serve-durable": runServeDurable,
	"sim-tables":    runSimTables,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "fastbench:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fastbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fastbench", flag.ContinueOnError)
	cfg := &runConfig{}
	fs.StringVar(&cfg.root, "root", ".", "repository checkout (holds BENCHMARK.json)")
	fs.StringVar(&cfg.fastd, "fastd", "", "fastd binary built from the same checkout")
	fs.StringVar(&cfg.workload, "workload", "", "serve-durable or sim-tables")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "seconds-long run that asserts every BENCHMARK.json metric is emitted")
	recordGolden := fs.Bool("record-golden", false, "rewrite the sim-tables golden file from this checkout and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *recordGolden {
		return recordSimGolden(filepath.Join(cfg.root, goldenPath))
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	cfg.seconds = float64(*seconds)
	cfg.trace = *traceFlag == 1
	if cfg.smoke {
		cfg.seconds = 2
	}
	// The metric list is read up front so a checkout without BENCHMARK.json
	// fails before any work.
	spec, err := loadSpec(cfg.root)
	if err != nil {
		return err
	}

	buildDir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return err
	}
	cfg.tmp, err = os.MkdirTemp(filepath.Join(buildDir, "tmp"), cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cfg.tmp)
	if cfg.trace {
		cfg.spans = newSpanLog()
	}

	stamp := envStamp(cfg)
	start := time.Now()
	steal0, total0 := cpuSteal()
	out, err := wl(cfg)
	if err != nil {
		return err
	}
	steal1, total1 := cpuSteal()
	stealShare := ratio(float64(steal1-steal0), float64(total1-total0))
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	for _, m := range want {
		if v, ok := out.metrics[m.Name]; ok {
			res.Metrics[m.Name] = v
		}
	}
	if cfg.smoke {
		if err := checkEmitted(want, out.metrics); err != nil {
			return err
		}
		if len(out.problems) > 0 {
			return fmt.Errorf("smoke: output checks failed: %v", out.problems)
		}
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "fastbench: check failed:", p)
	}
	fmt.Fprintf(os.Stderr, "fastbench: %s seed %d: %d ops attempted, %d failed, %.1fs wall, %.1f%% CPU stolen by the host\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, time.Since(start).Seconds(), stealShare*100)

	rec := record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Env: stamp, Result: res,
		LatencySamples: out.samples, StealShare: stealShare}
	if err := saveRecord(buildDir, rec); err != nil {
		return err
	}
	if cfg.spans != nil {
		if err := cfg.spans.write(filepath.Join(buildDir, "traces",
			fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			return err
		}
	}
	stampLine, err := json.Marshal(map[string]any{"env": stamp})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(stampLine))
	fmt.Println(string(line))
	return nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("read metric list: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// checkEmitted is the smoke assertion: every listed metric is present with
// its listed unit and a finite value.
func checkEmitted(want []specMetric, got map[string]metric) error {
	var missing []string
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name+" (absent)")
		case v.Unit != m.Unit:
			missing = append(missing, fmt.Sprintf("%s (unit %q, want %q)", m.Name, v.Unit, m.Unit))
		case v.Value != v.Value:
			missing = append(missing, m.Name+" (NaN)")
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("smoke: metrics not emitted as listed: %v", missing)
	}
	return nil
}
