// Command ahbsweep runs a design-space sweep — the "hundreds of different
// configurations and architectures" evaluation the paper's §4 motivates —
// over slave count, data width, slave wait states and arbitration policy,
// and emits one CSV row per configuration with energy, power, per-beat
// energy and the energy-class split. Scenarios execute in parallel across
// a worker pool (see -workers); the output order and content are
// byte-identical to a serial run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
	"ahbpower/internal/topo"
)

func main() {
	cycles := flag.Uint64("cycles", 4000, "bus cycles per configuration")
	slaves := flag.String("slaves", "2,3,8", "comma-separated slave counts")
	widths := flag.String("widths", "16,32", "comma-separated data widths")
	waits := flag.String("waits", "0,1,2", "comma-separated slave wait states")
	policies := flag.String("policies", "sticky,fixed,rr", "comma-separated arbitration policies")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel scenario workers")
	faultsFile := flag.String("faults", "", "inject faults from this JSON plan file into every configuration (see internal/fault)")
	out := flag.String("o", "", "output file (default stdout)")
	showMetrics := flag.Bool("metrics", false, "print batch run metrics (throughput, utilization, latency) to stderr")
	backend := flag.String("backend", "", "execution backend for every configuration: event pins the reference kernel; empty (the default), compiled, auto and lanes all run the fastest exact path, compiled unless a feature needs event (results are identical either way)")
	accuracy := flag.String("accuracy", "", "accuracy class for every configuration: cycle (exact, default) or transaction (calibrated transaction-level estimate, ~10x faster)")
	topoFile := flag.String("topology", "", "sweep from this declarative topology JSON file instead of the paper base (-widths/-waits/-policies still apply per point; -slaves does not: the address map fixes the slave count)")
	flag.Parse()

	if !exec.ValidName(*backend) {
		fatal(fmt.Errorf("unknown -backend %q (want event, compiled, lanes or auto)", *backend))
	}
	if !engine.ValidAccuracy(*accuracy) {
		fatal(fmt.Errorf("unknown -accuracy %q (want cycle or transaction)", *accuracy))
	}

	visited := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { visited[f.Name] = true })
	var baseTopo *topo.Topology
	if *topoFile != "" {
		if visited["slaves"] {
			fatal(errors.New("-slaves cannot be combined with -topology (the topology's address map fixes the slave count)"))
		}
		t, err := topo.LoadFile(*topoFile)
		if err != nil {
			fatal(err)
		}
		baseTopo = t
	}

	w := os.Stdout
	var closeOut func() error
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		closeOut = f.Close
		w = f
	}

	var pols []ahb.ArbPolicy
	for _, p := range strings.Split(*policies, ",") {
		pol, err := ahb.ParsePolicy(strings.TrimSpace(p))
		if err != nil {
			fatal(err)
		}
		pols = append(pols, pol)
	}

	grid := engine.Grid{
		Base:     core.PaperSystem(),
		BaseTopo: baseTopo,
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   *cycles,
		Widths:   ints(*widths),
		Waits:    ints(*waits),
		Policies: pols,
	}
	if baseTopo == nil {
		grid.Slaves = ints(*slaves)
	}

	var plan *fault.Plan
	if *faultsFile != "" {
		var err error
		if plan, err = fault.LoadFile(*faultsFile); err != nil {
			fatal(err)
		}
	}
	scens, err := grid.Expand()
	if err != nil {
		fatal(err)
	}
	for i := range scens {
		scens[i].Faults = plan
		scens[i].Backend = *backend
		scens[i].Accuracy = *accuracy
	}

	// Ctrl-C abandons queued scenarios; completed rows are still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	results, batch := engine.NewRunner(*workers).RunMetered(ctx, scens)
	if *showMetrics {
		fmt.Fprintln(os.Stderr, batch.Format())
	}

	if _, err := fmt.Fprintln(w, "slaves,width,waits,policy,cycles,beats,energy_J,avg_power_W,pJ_per_beat,data_transfer_pct,arbitration_pct"); err != nil {
		fatal(err)
	}
	for n, res := range results {
		if errors.Is(res.Err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "ahbsweep: interrupted after %d of %d configurations\n", n, len(results))
			os.Exit(1)
		}
		if res.Err != nil {
			fatal(res.Err)
		}
		if len(res.Violations) > 0 {
			// Flip rules are expected to trip the protocol monitor, so
			// under an active plan a violation is only reported; a
			// fault-free sweep treats it as fatal.
			if plan.Active() {
				fmt.Fprintf(os.Stderr, "ahbsweep: %s: %d protocol violations under fault injection (first: %v)\n",
					res.Scenario.Name, len(res.Violations), res.Violations[0])
			} else {
				fatal(fmt.Errorf("protocol violation in %s: %v", res.Scenario.Name, res.Violations[0]))
			}
		}
		// Derive the row's shape columns from the scenario's canonical
		// topology — one code path for both the count-based grid and a
		// -topology sweep (waits is the per-slave maximum, which for a
		// uniform grid point is exactly the configured wait-state count).
		t, r := res.Scenario.Topology(), res.Report
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%g,%g,%.3f,%.2f,%.2f\n",
			len(t.Slaves), t.DataWidth, t.MaxWaits(), t.Policy, r.Cycles, res.Beats,
			r.TotalEnergy, r.AvgPower, res.PJPerBeat(),
			100*r.DataTransferShare, 100*r.ArbitrationShare); err != nil {
			fatal(err)
		}
	}
	// Close the output file explicitly: a deferred Close would drop the
	// error, and the kernel may only report a write failure at close time.
	if closeOut != nil {
		if err := closeOut(); err != nil {
			fatal(err)
		}
	}
}

func ints(csv string) []int {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n := 0
		for _, r := range f {
			if r < '0' || r > '9' {
				fatal(fmt.Errorf("bad integer %q", f))
			}
			n = n*10 + int(r-'0')
		}
		out = append(out, n)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ahbsweep:", err)
	os.Exit(1)
}
