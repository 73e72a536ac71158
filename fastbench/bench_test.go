package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload in smoke mode, untraced and traced. Smoke
// mode fails unless every metric BENCHMARK.json lists for that mode is
// emitted with its unit and every output check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fastd and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	fastd := filepath.Join(t.TempDir(), "fastd")
	build := exec.Command("go", "build", "-o", fastd, "./cmd/fastd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fastd: %v\n%s", err, out)
	}
	for _, wl := range []string{"serve-durable", "sim-tables"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				args := []string{"-root", root, "-fastd", fastd, "-workload", wl,
					"-seed", "3", "-trace", trace, "-smoke"}
				if err := run(args); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	l := newSpanLog()
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	root := l.begin("op", -1, 1, at(0))
	a := l.begin("http.eval", root, 1, at(10))
	l.end(a, at(40))
	b := l.begin("http.decrypt", root, 1, at(30)) // overlaps a by 10 ms
	l.end(b, at(60))
	l.end(root, at(100))
	self := l.selfTimes(func(span) bool { return true })
	if got, want := self["client"], 50*time.Millisecond; got != want {
		t.Errorf("client self = %v, want %v", got, want)
	}
	if got, want := self["http"], 60*time.Millisecond; got != want {
		t.Errorf("http self = %v, want %v", got, want)
	}
}

func TestStampMismatchRefusesOtherMachines(t *testing.T) {
	base := record{Workload: "serve-durable", Env: stamp{CPUModel: "A", NProc: 2, GOMAXPROCS: 2,
		GoVersion: "go1.24.0", Kernels: "avx2", Commit: "src-1"}}
	other := base
	other.Env.Commit = "src-2"
	if r := stampMismatch(base, other); r != "" {
		t.Errorf("commits alone must compare, got refusal %q", r)
	}
	other.Env.Kernels = "purego"
	if r := stampMismatch(base, other); !strings.Contains(r, "kernels") {
		t.Errorf("kernel mismatch not refused: %q", r)
	}
}

func TestCheckEmittedNamesMissingAndWrongUnits(t *testing.T) {
	want := []specMetric{{"a_ms", "ms"}, {"b", "count"}, {"c", "s"}}
	got := map[string]metric{"a_ms": {1, "ms"}, "b": {2, "1/op"}}
	err := checkEmitted(want, got)
	if err == nil || !strings.Contains(err.Error(), "c (absent)") || !strings.Contains(err.Error(), `b (unit "1/op"`) {
		t.Fatalf("checkEmitted = %v", err)
	}
}
