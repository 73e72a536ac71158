// Command benchtables regenerates every table and figure of the paper's
// evaluation section in one run, printing our modelled numbers next to the
// published ones. It is the one-shot version of the bench_test.go harness.
//
// Usage:
//
//	benchtables [-only table5] (table3 table4 table5 table6 table7
//	                            fig2 fig3 fig4 fig10 fig11 fig12 fig13)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/baselines"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/tbm"
)

// gen prints the tables and figures to w. Every simulation accumulates
// into obs when -obs-json is passed (nil otherwise: zero overhead).
type gen struct {
	w   io.Writer
	obs *fast.Observer
	err error // first simulation error
}

// simulate runs one simulation. An error is kept for run to return; the
// table being printed then gets an empty report.
func (g *gen) simulate(w fast.Workload, a fast.Accelerator, m fast.PlanMode) *fast.Report {
	r, err := fast.SimulateObserved(w, a, m, g.obs)
	if err != nil {
		if g.err == nil {
			g.err = err
		}
		return &fast.Report{}
	}
	return r
}

func (g *gen) fig2() {
	fmt.Fprintln(g.w, "--- Fig. 2(a): quantitative line hybrid/KLSS per level ---")
	p := costmodel.SetII()
	fmt.Fprintln(g.w, "level  hybrid_Mops  klss_Mops  line")
	for l := 4; l <= 35; l++ {
		hy := p.HybridKeySwitch(l, 1).Total() / 1e6
		kl := p.KLSSKeySwitch(l, 1).Total() / 1e6
		fmt.Fprintf(g.w, "%5d  %11.1f  %9.1f  %5.3f\n", l, hy, kl, hy/kl)
	}
	fmt.Fprintln(g.w, "\n--- Fig. 2(b): kernel breakdown at representative levels ---")
	fmt.Fprintln(g.w, "level  method   NTT(M)  BConv(M)  KeyMult(M)  Other(M)")
	for _, l := range []int{5, 12, 21, 24, 25, 35} {
		for _, m := range []costmodel.Method{costmodel.Hybrid, costmodel.KLSS} {
			bd := p.KeySwitch(m, l, 1)
			fmt.Fprintf(g.w, "%5d  %-7v  %6.1f  %8.1f  %10.1f  %8.1f\n",
				l, m, bd.NTT/1e6, bd.BConv/1e6, bd.KeyMult/1e6, bd.Other/1e6)
		}
	}
}

func (g *gen) fig3() {
	p := costmodel.SetII()
	fmt.Fprintln(g.w, "--- Fig. 3(a): hoisting impact at level 35 (KLSS normalised to hybrid) ---")
	fmt.Fprintln(g.w, "hoist  klss/hybrid")
	for _, h := range []int{1, 2, 4, 6} {
		fmt.Fprintf(g.w, "%5d  %11.3f\n", h, p.KLSSKeySwitch(35, h).Total()/p.HybridKeySwitch(35, h).Total())
	}
	fmt.Fprintln(g.w, "\n--- Fig. 3(b): working-set sizes (MB) ---")
	const mb = 1 << 20
	fmt.Fprintln(g.w, "level  ct  evk_hybrid  evk_klss  4ct  8ct")
	for l := 5; l <= 35; l += 5 {
		fmt.Fprintf(g.w, "%5d  %4.1f  %10.1f  %8.1f  %5.1f  %5.1f\n", l,
			float64(p.CiphertextBytes(l))/mb,
			float64(p.EvkBytes(costmodel.Hybrid, l))/mb,
			float64(p.EvkBytes(costmodel.KLSS, l))/mb,
			float64(4*p.CiphertextBytes(l))/mb,
			float64(8*p.CiphertextBytes(l))/mb)
	}
	fmt.Fprintln(g.w, "(paper at level 35: ct 19.7, hybrid 79.3, KLSS 295.3)")
}

func (g *gen) fig4() {
	fmt.Fprintln(g.w, "--- Fig. 4: ALU area/power scaling (normalised to 36-bit) ---")
	fmt.Fprintln(g.w, "bits  mult_area  mult_power  modmult_area  modmult_power")
	for _, w := range []int{28, 32, 36, 44, 52, 60, 64} {
		fmt.Fprintf(g.w, "%4d  %9.2f  %10.2f  %12.2f  %13.2f\n", w,
			tbm.RelativeArea(tbm.MultOnly, w), tbm.RelativePower(tbm.MultOnly, w),
			tbm.RelativeArea(tbm.ModMult, w), tbm.RelativePower(tbm.ModMult, w))
	}
	fmt.Fprintln(g.w, "(paper at 60-bit: 2.8 / 2.7 / 2.9 / 2.8)")
}

func (g *gen) table3() {
	fmt.Fprintln(g.w, "--- Table 3: FAST area and peak power ---")
	cfg := arch.FAST()
	fmt.Fprintln(g.w, "component       area_mm2  peak_W   published")
	pub := map[arch.Component][2]float64{
		arch.NTTU: {60.88, 142.7}, arch.BConvU: {28.89, 86.6}, arch.KMU: {10.58, 27.67},
		arch.AutoU: {0.6, 0.8}, arch.AEM: {8.67, 10.7}, arch.RegisterFile: {123.9, 29.4},
		arch.HBM: {29.6, 31.8}, arch.NoC: {20.6, 27.0},
	}
	for _, c := range arch.Components() {
		ap := cfg.ComponentBudget(c)
		fmt.Fprintf(g.w, "%-14s  %8.2f  %6.1f   (%.2f / %.1f)\n", c, ap.AreaMM2, ap.PowerW, pub[c][0], pub[c][1])
	}
	t := cfg.TotalAreaPower()
	fmt.Fprintf(g.w, "%-14s  %8.2f  %6.1f   (283.75 mm2)\n", "Total", t.AreaMM2, t.PowerW)
}

func (g *gen) table4() {
	fmt.Fprintln(g.w, "--- Table 4: hardware comparison ---")
	fmt.Fprintln(g.w, "name          bits  lanes  onchip_MB  area_mm2")
	for _, r := range baselines.All() {
		fmt.Fprintf(g.w, "%-12s  %4d  %5d  %9.0f  %8.1f\n", r.Name, r.BitWidth, r.Lanes, r.OnChipMB, r.AreaMM2)
	}
	f := fast.FASTAccelerator()
	fmt.Fprintf(g.w, "%-12s  %4d  %5d  %9.0f  %8.1f   (our model)\n", "FAST(model)", 60,
		f.Config().Lanes(), f.Config().OnChipMB, f.AreaMM2())
}

func (g *gen) table5() {
	fmt.Fprintln(g.w, "--- Table 5: execution time (ms), simulated vs published ---")
	ws := []fast.Workload{fast.BootstrapWorkload(), fast.HELRWorkload(256), fast.HELRWorkload(1024), fast.ResNet20Workload()}
	accs := []fast.Accelerator{
		fast.SHARPAccelerator(), fast.SHARPLMAccelerator(),
		fast.SHARP8CAccelerator(), fast.SHARPLM8CAccelerator(), fast.FASTAccelerator(),
	}
	fmt.Fprintln(g.w, "config        bootstrap  helr256  helr1024  resnet20")
	for _, acc := range accs {
		fmt.Fprintf(g.w, "%-12s", acc.Name())
		for _, w := range ws {
			fmt.Fprintf(g.w, "  %8.2f", g.simulate(w, acc, fast.PlanAuto).TimeMS)
		}
		fmt.Fprintln(g.w)
	}
	fmt.Fprintln(g.w, "published:")
	for _, p := range baselines.All() {
		if p.Bootstrap > 0 {
			fmt.Fprintf(g.w, "%-12s  %8.2f  %7.2f  %8.2f  %8.2f\n", p.Name, p.Bootstrap, p.HELR256, p.HELR1024, p.ResNet20)
		}
	}
	sharp := g.simulate(ws[0], accs[0], fast.PlanAuto)
	fastR := g.simulate(ws[0], accs[4], fast.PlanAuto)
	fmt.Fprintf(g.w, "bootstrap speedup FAST/SHARP: %.2fx (published 2.26x)\n", sharp.TimeMS/fastR.TimeMS)
}

func (g *gen) table6() {
	fmt.Fprintln(g.w, "--- Table 6: T_mult,a/s ---")
	fmt.Fprintln(g.w, "accelerator   T_ns")
	for _, p := range append(baselines.All(), baselines.Table6Extra()...) {
		if p.TmultNS > 0 {
			fmt.Fprintf(g.w, "%-12s  %6.1f  (published)\n", p.Name, p.TmultNS)
		}
	}
	for _, acc := range []fast.Accelerator{fast.FASTAccelerator(), fast.SHARPAccelerator()} {
		r := g.simulate(fast.BootstrapWorkload(), acc, fast.PlanAuto)
		const slots, lEff = 1 << 15, 8
		multMS := r.PhaseCycles["EvalMod"] / 7 / 1e6
		tns := (r.TimeMS + lEff*multMS) * 1e6 / (slots * lEff)
		fmt.Fprintf(g.w, "%-12s  %6.1f  (our model)\n", acc.Name()+"(model)", tns)
	}
}

func (g *gen) table7() {
	fmt.Fprintln(g.w, "--- Table 7: average power, energy, EDP on FAST ---")
	fmt.Fprintln(g.w, "workload      power_W  energy_J  EDP_mJs")
	for _, w := range []fast.Workload{
		fast.BootstrapWorkload(), fast.HELRWorkload(256), fast.HELRWorkload(1024),
		fast.HELRTrainingWorkload(256, 32), fast.ResNet20Workload(),
	} {
		r := g.simulate(w, fast.FASTAccelerator(), fast.PlanAuto)
		fmt.Fprintf(g.w, "%-12s  %7.1f  %8.3f  %7.3f\n", w.Name(), r.AvgPowerW, r.EnergyJ, r.EDP*1e3)
	}
	fmt.Fprintln(g.w, "(paper bootstrap row: 120 W, 0.16 J; see EXPERIMENTS.md on the published table's internal units)")
}

func (g *gen) fig10() {
	fmt.Fprintln(g.w, "--- Fig. 10: execution-time breakdown on FAST ---")
	fmt.Fprintln(g.w, "plan      time_ms  hybrid_Mcy  klss_Mcy")
	for _, tc := range []struct {
		name string
		mode fast.PlanMode
	}{{"oneksw", fast.PlanOneKSW}, {"hoisting", fast.PlanHoisting}, {"aether", fast.PlanAether}} {
		r := g.simulate(fast.BootstrapWorkload(), fast.FASTAccelerator(), tc.mode)
		fmt.Fprintf(g.w, "%-8s  %7.3f  %10.2f  %8.2f\n", tc.name, r.TimeMS, r.HybridCycles/1e6, r.KLSSCycles/1e6)
	}
}

func (g *gen) fig11() {
	r := g.simulate(fast.BootstrapWorkload(), fast.FASTAccelerator(), fast.PlanAuto)
	fmt.Fprintln(g.w, "--- Fig. 11(a): FAST component utilisation on bootstrap ---")
	fmt.Fprintf(g.w, "NTTU %.1f%%  BConvU %.1f%%  KMU %.1f%%  HBM %.1f%%  (paper: 66.5 / 24.3 / 25.7 / 44.3)\n",
		100*r.NTTUUtil, 100*r.BConvUUtil, 100*r.KMUUtil, 100*r.HBMUtil)
	fmt.Fprintln(g.w, "--- Fig. 11(b): bootstrap modular operations ---")
	hy := g.simulate(fast.BootstrapWorkload(), fast.FASTAccelerator(), fast.PlanOneKSW)
	fmt.Fprintf(g.w, "hybrid-only: %.2f Gops (NTT %.2f, BConv %.2f, KeyMult %.2f)\n",
		hy.TotalModOps/1e9, hy.KernelNTT/1e9, hy.KernelBConv/1e9, hy.KernelKeyMult/1e9)
	fmt.Fprintf(g.w, "FAST plan:   %.2f Gops (NTT %.2f, BConv %.2f, KeyMult %.2f)\n",
		r.TotalModOps/1e9, r.KernelNTT/1e9, r.KernelBConv/1e9, r.KernelKeyMult/1e9)
	fmt.Fprintf(g.w, "total change %.1f%% (paper -17.3%%)\n", 100*(r.TotalModOps-hy.TotalModOps)/hy.TotalModOps)
}

func (g *gen) fig12() {
	fmt.Fprintln(g.w, "--- Fig. 12: ablation (ms) ---")
	ws := []fast.Workload{fast.BootstrapWorkload(), fast.HELRWorkload(256), fast.HELRWorkload(1024), fast.ResNet20Workload()}
	for _, acc := range []fast.Accelerator{fast.FASTAccelerator(), fast.FASTNoTBMAccelerator(), fast.FAST36Accelerator()} {
		fmt.Fprintf(g.w, "%-15s", acc.Name())
		for _, w := range ws {
			fmt.Fprintf(g.w, "  %8.2f", g.simulate(w, acc, fast.PlanAuto).TimeMS)
		}
		fmt.Fprintln(g.w)
	}
}

func (g *gen) fig13() {
	fmt.Fprintln(g.w, "--- Fig. 13(a): SRAM sensitivity (bootstrap) ---")
	fmt.Fprintln(g.w, "onchip_MB  time_ms  area_mm2")
	for _, mb := range []float64{70, 140, 281, 422, 562} {
		acc := fast.FASTAccelerator().WithOnChipMB(mb)
		r := g.simulate(fast.BootstrapWorkload(), acc, fast.PlanAuto)
		fmt.Fprintf(g.w, "%9.0f  %7.3f  %8.1f\n", mb, r.TimeMS, acc.AreaMM2())
	}
	fmt.Fprintln(g.w, "--- Fig. 13(b): cluster sensitivity (bootstrap) ---")
	fmt.Fprintln(g.w, "clusters  time_ms  area_mm2")
	for _, n := range []int{2, 4, 8} {
		acc := fast.FASTAccelerator()
		if n != 4 {
			acc = acc.WithClusters(n)
		}
		r := g.simulate(fast.BootstrapWorkload(), acc, fast.PlanAuto)
		fmt.Fprintf(g.w, "%8d  %7.3f  %8.1f\n", n, r.TimeMS, acc.AreaMM2())
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

// run parses args, prints the selected tables and figures to stdout and
// reports progress notes on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "regenerate a single table/figure (e.g. table5, fig11)")
	obsJSON := fs.String("obs-json", "", "write the accumulated metrics registry (dispatch counters, decision tallies, last-run gauges) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g := &gen{w: stdout}
	if *obsJSON != "" {
		g.obs = fast.NewObserver()
	}

	all := []struct {
		name string
		fn   func()
	}{
		{"fig2", g.fig2}, {"fig3", g.fig3}, {"fig4", g.fig4},
		{"table3", g.table3}, {"table4", g.table4}, {"table5", g.table5},
		{"table6", g.table6}, {"table7", g.table7},
		{"fig10", g.fig10}, {"fig11", g.fig11}, {"fig12", g.fig12}, {"fig13", g.fig13},
	}
	ran := false
	for _, e := range all {
		if *only == "" || *only == e.name {
			e.fn()
			if g.err != nil {
				return fmt.Errorf("%s: %w", e.name, g.err)
			}
			fmt.Fprintln(stdout)
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown selector %q", *only)
	}
	if *obsJSON != "" {
		f, err := os.Create(*obsJSON)
		if err != nil {
			return err
		}
		err = g.obs.WriteMetricsJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "benchtables: wrote metrics snapshot to %s\n", *obsJSON)
	}
	return nil
}
