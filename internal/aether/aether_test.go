package aether

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/trace"
	"github.com/fastfhe/fast/internal/workloads"
)

func analyzer(t *testing.T, cfg arch.Config) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(costmodel.SetII(), cfg)
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	return a
}

func TestNewAnalyzerValidatesConfig(t *testing.T) {
	bad := arch.FAST()
	bad.Clusters = 0
	if _, err := NewAnalyzer(costmodel.SetII(), bad); err == nil {
		t.Error("expected error for invalid config")
	}
}

func TestAnalyzeBootstrapSelectsBothMethods(t *testing.T) {
	a := analyzer(t, arch.FAST())
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	plan, mct, err := a.AnalyzeMCT(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	wantOps := 0
	for _, op := range tr.Ops {
		if op.Kind.NeedsKeySwitch() {
			wantOps++
		}
	}
	if len(plan.Decisions) != wantOps {
		t.Fatalf("decisions = %d, want one per key-switch op (%d)", len(plan.Decisions), wantOps)
	}
	if len(mct) == 0 {
		t.Fatal("empty MCT")
	}
	var hybrid, klss, hoisted int
	for _, d := range plan.Decisions {
		switch d.Method {
		case costmodel.Hybrid:
			hybrid++
		case costmodel.KLSS:
			klss++
		}
		if d.Hoist > 1 {
			hoisted++
		}
	}
	if hybrid == 0 || klss == 0 {
		t.Errorf("Aether should mix methods on FAST: hybrid=%d klss=%d", hybrid, klss)
	}
	if hoisted == 0 {
		t.Error("Aether should hoist the baby-step rotation groups")
	}
}

func TestAnalyzeRespectsFeatureFlags(t *testing.T) {
	cfg := arch.FAST()
	cfg.EnableKLSS = false
	cfg.EnableHoisting = false
	a := analyzer(t, cfg)
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	plan, err := a.Analyze(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, d := range plan.Decisions {
		if d.Method != costmodel.Hybrid {
			t.Fatal("KLSS selected despite being disabled")
		}
		if d.Hoist != 1 {
			t.Fatal("hoisting selected despite being disabled")
		}
	}
}

// STEP-1: a configuration whose keys exceed the reserved capacity must not
// be selected even if its compute cost is lower.
func TestCapacityFilter(t *testing.T) {
	cfg := arch.FAST()
	cfg.OnChipMB = 40
	cfg.ReservedEvkMB = 30 // KLSS keys never fit at high levels
	a := analyzer(t, cfg)
	tr := &trace.Trace{Name: "hi-level-mults"}
	for i := 0; i < 4; i++ {
		tr.Append(trace.Op{Kind: trace.HMult, Level: 30})
	}
	plan, err := a.Analyze(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, d := range plan.Decisions {
		if d.Method == costmodel.KLSS {
			t.Fatal("KLSS key cannot fit in 30 MB at level 30; STEP-1 should filter it")
		}
	}
}

func TestMCTContents(t *testing.T) {
	a := analyzer(t, arch.FAST())
	tr := &trace.Trace{Name: "one-rot"}
	tr.Append(trace.Op{Kind: trace.HRot, Level: 20, Hoist: 4, Rotations: []int{1, 2, 3, 4}})
	_, mct, err := a.AnalyzeMCT(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Hoist candidates for a group of 4: 1, 2, 4.
	if len(mct) != 3 {
		t.Fatalf("MCT rows = %d, want 3", len(mct))
	}
	for _, row := range mct {
		if row.Level != 20 {
			t.Errorf("row level %d", row.Level)
		}
		for mi := range row.Cost {
			if row.Cost[mi] <= 0 || row.Delay[mi] <= 0 || row.KeySize[mi] <= 0 || row.TransferTime[mi] <= 0 {
				t.Errorf("row %+v has non-positive metrics", row)
			}
		}
	}
	// Hoisted rows need more key space but less compute.
	if mct[0].Hoist != 1 || mct[2].Hoist != 4 {
		t.Fatalf("unexpected hoist ordering: %d, %d", mct[0].Hoist, mct[2].Hoist)
	}
	if mct[2].KeySize[0] <= mct[0].KeySize[0] {
		t.Error("hoisting must increase the resident key requirement")
	}
	if mct[2].Cost[0] >= mct[0].Cost[0]*4 {
		t.Error("hoisting must reduce the total cost of the group")
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	a := analyzer(t, arch.FAST())
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	plan, err := a.Analyze(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var buf bytes.Buffer
	if err := plan.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// The paper quotes ~1 KB for the configuration file; ours stays small.
	if buf.Len() > 16<<10 {
		t.Errorf("config file unexpectedly large: %d bytes", buf.Len())
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Workload != plan.Workload || len(back.Decisions) != len(plan.Decisions) {
		t.Fatal("round trip lost data")
	}
	for i := range plan.Decisions {
		if back.Decisions[i] != plan.Decisions[i] {
			t.Fatalf("decision %d differs", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("expected decode error")
	}
}

func TestDecisionForDefaults(t *testing.T) {
	var nilFile *ConfigFile
	d := nilFile.DecisionFor(7)
	if d.Method != costmodel.Hybrid || d.Hoist != 1 {
		t.Error("nil config should default to non-hoisted hybrid")
	}
	c := &ConfigFile{Decisions: []Decision{{OpIndex: 3, Method: costmodel.KLSS, Hoist: 2}}}
	if got := c.DecisionFor(3); got.Method != costmodel.KLSS || got.Hoist != 2 {
		t.Error("lookup failed")
	}
	if got := c.DecisionFor(4); got.Method != costmodel.Hybrid {
		t.Error("missing op should default to hybrid")
	}
}

func TestHoistCandidates(t *testing.T) {
	a := analyzer(t, arch.FAST())
	if got := a.hoistCandidates(nil, 8); len(got) != 4 || got[3] != 8 {
		t.Errorf("hoistCandidates(8) = %v", got)
	}
	if got := a.hoistCandidates(nil, 6); got[len(got)-1] != 6 {
		t.Errorf("hoistCandidates(6) should end with the full group, got %v", got)
	}
	cfg := arch.FAST()
	cfg.EnableHoisting = false
	b := analyzer(t, cfg)
	if got := b.hoistCandidates(nil, 8); len(got) != 1 || got[0] != 1 {
		t.Errorf("disabled hoisting should yield [1], got %v", got)
	}
}

// DecisionFor only reads the file: two goroutines looking up decisions on
// one fresh ConfigFile must not race (run under -race), and both must see
// every decision.
func TestDecisionForConcurrent(t *testing.T) {
	c := &ConfigFile{}
	for op := 0; op < 64; op += 2 {
		c.Decisions = append(c.Decisions, Decision{OpIndex: op, Method: costmodel.KLSS, Hoist: 2})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < 64; op++ {
				d := c.DecisionFor(op)
				if want := op%2 == 0; (d.Method == costmodel.KLSS) != want || d.OpIndex != op {
					errs <- fmt.Sprintf("op %d: got %+v", op, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// The cursor answers exactly like DecisionFor for increasing op indices,
// including ops the file does not mention and a nil file.
func TestCursorMatchesDecisionFor(t *testing.T) {
	tr := workloads.Bootstrap(workloads.DefaultProfile())
	plan, err := analyzer(t, arch.FAST()).Analyze(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, c := range []*ConfigFile{plan, nil, {}} {
		cu := c.Cursor()
		for op := 0; op <= len(tr.Ops); op++ {
			if got, want := cu.DecisionFor(op), c.DecisionFor(op); got != want {
				t.Fatalf("op %d: cursor %+v, DecisionFor %+v", op, got, want)
			}
		}
	}
}

func TestLoadRejectsOutOfOrderDecisions(t *testing.T) {
	for _, body := range []string{
		`{"workload":"w","decisions":[{"op":5},{"op":3}]}`,
		`{"workload":"w","decisions":[{"op":3},{"op":3}]}`,
	} {
		if _, err := Load(strings.NewReader(body)); err == nil {
			t.Errorf("Load(%s) accepted decisions out of op order", body)
		}
	}
	c, err := Load(strings.NewReader(`{"workload":"w","decisions":[{"op":1,"method":1,"hoist":1},{"op":4}]}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if d := c.DecisionFor(1); d.Method != costmodel.KLSS {
		t.Errorf("DecisionFor(1) = %+v", d)
	}
}
