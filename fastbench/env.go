package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// stamp identifies the environment a result was measured in. Results from
// different environments are not comparable: the same code has measured ~1.9x
// apart on two machines.
type stamp struct {
	CPUModel   string   `json:"cpu_model"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	BuildTags  string   `json:"build_tags"`
	Kernels    string   `json:"kernels"`
	FastdFlags []string `json:"fastd_flags"`
}

func envStamp(cfg *runConfig) stamp {
	s := stamp{
		CPUModel:   cpuInfo("model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceHash(cfg.root),
	}
	if cfg.workload != "sim-tables" {
		s.FastdFlags = fastdFlags(cfg.workload, "<tmp>")
	}
	if cfg.fastd != "" {
		if bi, err := buildinfo.ReadFile(cfg.fastd); err == nil {
			s.GoVersion = bi.GoVersion
			for _, kv := range bi.Settings {
				if kv.Key == "-tags" {
					s.BuildTags = kv.Value
				}
			}
		}
	}
	switch {
	case strings.Contains(s.BuildTags, "purego") || runtime.GOARCH != "amd64":
		s.Kernels = "purego"
	case strings.Contains(" "+cpuInfo("flags")+" ", " avx2 "):
		s.Kernels = "avx2"
	default:
		s.Kernels = "amd64-no-avx2"
	}
	return s
}

// cpuSteal returns the steal and total CPU time counters of /proc/stat, in
// clock ticks (zeros elsewhere).
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuInfo returns the first value of a /proc/cpuinfo field ("" elsewhere).
func cpuInfo(field string) string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == field {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// sourceHash names the code under test when the checkout carries no VCS
// metadata: a SHA-256 over every Go source, assembly file and go.mod, in path
// order.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(p); !d.IsDir() && (ext == ".go" || ext == ".s" || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		if f, err := os.Open(p); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// record is what saveRecord keeps of one run, and what compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Env      stamp  `json:"env"`
	Result   result `json:"result"`
	// LatencySamples is how many op latencies the quantiles were taken over
	// (untraced runs).
	LatencySamples int `json:"latency_samples,omitempty"`
	// StealShare is the share of CPU time the hypervisor took from this
	// machine during the run: runs of the same code spread most when it is
	// high.
	StealShare float64 `json:"steal_share"`
}

func saveRecord(buildDir string, rec record) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", rec.Workload, rec.Seed, rec.Trace)
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}

// compare prints NEW/OLD for every metric two records share. It refuses when
// the records come from different environments or workloads; only the commit
// may differ.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare OLD.json NEW.json")
	}
	var recs [2]record
	for i, p := range args {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := recs[0], recs[1]
	if reason := stampMismatch(a, b); reason != "" {
		return fmt.Errorf("refusing to compare: %s", reason)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		if _, ok := b.Result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("%s (%s -> %s)\n", a.Workload, a.Env.Commit, b.Env.Commit)
	for _, n := range names {
		ov, nv := a.Result.Metrics[n], b.Result.Metrics[n]
		ratio := "-"
		if ov.Value != 0 {
			ratio = fmt.Sprintf("%.3fx", nv.Value/ov.Value)
		}
		fmt.Printf("  %-32s %14.4f %14.4f %-8s %s\n", n, ov.Value, nv.Value, ov.Unit, ratio)
	}
	return nil
}

// stampMismatch explains why two records are not like for like ("" when
// they are).
func stampMismatch(a, b record) string {
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Sprintf("workload %s/trace=%t vs %s/trace=%t", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	x, y := a.Env, b.Env
	for _, d := range []struct{ name, a, b string }{
		{"cpu_model", x.CPUModel, y.CPUModel},
		{"nproc", fmt.Sprint(x.NProc), fmt.Sprint(y.NProc)},
		{"gomaxprocs", fmt.Sprint(x.GOMAXPROCS), fmt.Sprint(y.GOMAXPROCS)},
		{"go_version", x.GoVersion, y.GoVersion},
		{"build_tags", x.BuildTags, y.BuildTags},
		{"kernels", x.Kernels, y.Kernels},
		{"fastd_flags", strings.Join(x.FastdFlags, " "), strings.Join(y.FastdFlags, " ")},
	} {
		if d.a != d.b {
			return fmt.Sprintf("%s differs (%q vs %q)", d.name, d.a, d.b)
		}
	}
	return ""
}
