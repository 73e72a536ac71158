// Command aether is the offline key-switching planner (paper §4.1.1): it
// analyses a workload's FHE operation flow against a target accelerator,
// prints the Methods Candidate Table summary, and writes the Aether
// configuration file that the Hemera runtime (and the simulator) consume.
//
// Usage:
//
//	aether -workload bootstrap|helr256|helr1024|resnet20 [-config fast] [-o aether.json] [-mct]
//	       [-http 127.0.0.1:9091]
//
// -http serves the planner's decision tallies as Prometheus text on /metrics
// plus expvar (/debug/vars) and pprof (/debug/pprof) after the analysis,
// blocking until interrupted.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"

	"github.com/fastfhe/fast/internal/aether"
	"github.com/fastfhe/fast/internal/arch"
	"github.com/fastfhe/fast/internal/baselines"
	"github.com/fastfhe/fast/internal/costmodel"
	"github.com/fastfhe/fast/internal/obs"
	"github.com/fastfhe/fast/internal/trace"
	"github.com/fastfhe/fast/internal/workloads"
)

// Test hooks mirroring cmd/fastsim: httpStarted observes the bound address,
// httpWait blocks until shutdown (interrupt by default).
var (
	httpStarted = func(net.Addr) {}
	httpWait    = func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
)

func pickWorkload(name string) (*trace.Trace, error) {
	p := workloads.DefaultProfile()
	switch name {
	case "bootstrap":
		return workloads.Bootstrap(p), nil
	case "helr256":
		return workloads.HELR(p, 256), nil
	case "helr1024":
		return workloads.HELR(p, 1024), nil
	case "resnet20":
		return workloads.ResNet20(p), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func pickConfig(name string) (arch.Config, error) {
	switch name {
	case "fast":
		return arch.FAST(), nil
	case "sharp":
		return baselines.SHARP(), nil
	case "sharp-lm":
		return baselines.SHARPLM(), nil
	}
	return arch.Config{}, fmt.Errorf("unknown config %q", name)
}

func run() error {
	workload := flag.String("workload", "bootstrap", "workload to analyse")
	config := flag.String("config", "fast", "target accelerator: fast, sharp, sharp-lm")
	out := flag.String("o", "", "write the Aether configuration file here (default stdout)")
	showMCT := flag.Bool("mct", false, "print the Methods Candidate Table")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address after the analysis (blocks until interrupted)")
	flag.Parse()

	tr, err := pickWorkload(*workload)
	if err != nil {
		return err
	}
	cfg, err := pickConfig(*config)
	if err != nil {
		return err
	}
	an, err := aether.NewAnalyzer(costmodel.SetII(), cfg)
	if err != nil {
		return err
	}
	plan, mct, err := an.AnalyzeMCT(tr)
	if err != nil {
		return err
	}

	if *showMCT {
		fmt.Fprintln(os.Stderr, "op  ct  level hoist times  cost_hy(M)  cost_kl(M)  key_hy(MB)  key_kl(MB)")
		for _, e := range mct {
			fmt.Fprintf(os.Stderr, "%3d %3d %5d %5d %5d  %10.1f  %10.1f  %10.1f  %10.1f\n",
				e.OpIndex, e.CtID, e.Level, e.Hoist, e.Times,
				e.Cost[0]/1e6, e.Cost[1]/1e6,
				float64(e.KeySize[0])/(1<<20), float64(e.KeySize[1])/(1<<20))
		}
	}

	var hybrid, klss, hoisted int
	for _, d := range plan.Decisions {
		if d.Method == costmodel.KLSS {
			klss++
		} else {
			hybrid++
		}
		if d.Hoist > 1 {
			hoisted++
		}
	}
	fmt.Fprintf(os.Stderr, "aether: %s on %s: %d key-switch ops (%d hybrid, %d klss, %d hoisted)\n",
		tr.Name, cfg.Name, len(plan.Decisions), hybrid, klss, hoisted)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := plan.Save(w); err != nil {
		return err
	}

	if *httpAddr != "" {
		o := obs.New()
		reg := o.Reg()
		reg.Counter("aether.decision.hybrid").Add(uint64(hybrid))
		reg.Counter("aether.decision.klss").Add(uint64(klss))
		reg.Counter("aether.decision.hoisted").Add(uint64(hoisted))
		addr, shutdown, err := o.Serve(*httpAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "aether: serving observability on http://%s (Ctrl-C to exit)\n", addr)
		httpStarted(addr)
		httpWait()
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aether:", err)
		os.Exit(1)
	}
}
