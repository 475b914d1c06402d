// Command ahbsim runs the paper's AMBA AHB testbench — two masters, a
// simple default master and three slaves at 100 MHz — with system-level
// power analysis attached, and prints the per-instruction energy table
// (the paper's Table 1) and the sub-block power contribution (Fig. 6).
// With -trace it additionally records a streaming power-trace and writes
// it as CSV, JSON lines or analog VCD (chosen by file extension). Ctrl-C
// cancels the run mid-simulation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/experiments"
	"ahbpower/internal/fault"
	"ahbpower/internal/metrics"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
)

func main() {
	cycles := flag.Uint64("cycles", 5000, "bus cycles to simulate (paper: 5000 = 50 us at 100 MHz)")
	style := flag.String("style", "global", "power model style: global, local or private")
	masters := flag.Int("masters", 2, "number of active masters")
	slaves := flag.Int("slaves", 3, "number of slaves")
	waits := flag.Int("waits", 0, "slave wait states")
	modelFile := flag.String("models", "", "load characterized macromodels from a JSON file (see examples/characterize)")
	traceFile := flag.String("trace", "", "record a power trace to this file (.csv, .jsonl or .vcd by extension)")
	window := flag.Float64("window", 100e-9, "power-trace window duration in seconds")
	faultsFile := flag.String("faults", "", "inject faults from this JSON plan file (see internal/fault)")
	exp := flag.String("exp", "", "run a named experiment instead: table1, figures, overhead, validation, granularity, styles, parametric, burst, pattern, dpm, cosim, impl, buses, topology, all")
	backend := flag.String("backend", "", "execution backend: event pins the reference kernel; empty (the default), compiled, auto and lanes all run the fastest exact path, compiled unless a feature needs event (results are identical either way)")
	accuracy := flag.String("accuracy", "", "accuracy class: cycle (exact, default) or transaction (calibrated transaction-level estimate, ~10x faster; falls back to cycle for features the estimator cannot honor)")
	topoFile := flag.String("topology", "", "build the system from this declarative topology JSON file (see examples/topologies; overrides -masters/-slaves/-waits)")
	validateOnly := flag.Bool("validate-only", false, "with -topology: run the ERC compliance pass, print the findings and exit without simulating")
	flag.Parse()

	if !exec.ValidName(*backend) {
		fatal(fmt.Errorf("unknown -backend %q (want event, compiled, lanes or auto)", *backend))
	}
	if !engine.ValidAccuracy(*accuracy) {
		fatal(fmt.Errorf("unknown -accuracy %q (want cycle or transaction)", *accuracy))
	}

	var topol *topo.Topology
	if *topoFile != "" {
		t, err := topo.LoadFile(*topoFile)
		if err != nil {
			fatal(err)
		}
		topol = t
	}
	if *validateOnly {
		if topol == nil {
			fatal(errors.New("-validate-only requires -topology"))
		}
		errs, warns := topo.Validate(*topol)
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "error   %-26s %s: %s\n", e.Code, e.Path, e.Detail)
		}
		for _, wn := range warns {
			fmt.Fprintf(os.Stderr, "warning %-26s %s: %s\n", wn.Code, wn.Path, wn.Detail)
		}
		if len(errs) > 0 {
			fmt.Fprintf(os.Stderr, "ahbsim: %s: %d ERC errors\n", *topoFile, len(errs))
			os.Exit(1)
		}
		fmt.Printf("ahbsim: %s: ERC clean (%d warnings)\n", *topoFile, len(warns))
		return
	}

	if *exp != "" {
		if err := runExperiments(*exp, *cycles); err != nil {
			fatal(err)
		}
		return
	}

	st := core.StyleGlobal
	switch *style {
	case "global":
	case "local":
		st = core.StyleLocal
	case "private":
		st = core.StylePrivate
	default:
		fmt.Fprintf(os.Stderr, "unknown style %q\n", *style)
		os.Exit(2)
	}

	cfg := core.PaperSystem()
	cfg.NumActiveMasters = *masters
	cfg.NumSlaves = *slaves
	cfg.SlaveWaits = *waits
	acfg := core.AnalyzerConfig{Style: st}
	if *modelFile != "" {
		f, err := os.Open(*modelFile)
		if err != nil {
			fatal(err)
		}
		models, err := power.LoadModels(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		acfg.Models = models
	}
	var trace *metrics.Trace
	if *traceFile != "" {
		var err error
		trace, err = metrics.NewTrace(metrics.TraceConfig{
			Window:         *window,
			PerBlock:       true,
			PerInstruction: true,
		})
		if err != nil {
			fatal(err)
		}
		acfg.Trace = trace
	}

	var plan *fault.Plan
	if *faultsFile != "" {
		var err error
		if plan, err = fault.LoadFile(*faultsFile); err != nil {
			fatal(err)
		}
	}

	// Ctrl-C cancels the run mid-simulation; the trace keeps what it saw.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res := engine.RunOne(ctx, engine.Scenario{
		Name:     "ahbsim",
		System:   cfg,
		Topo:     topol,
		Analyzer: acfg,
		Cycles:   *cycles,
		Faults:   plan,
		Backend:  *backend,
		Accuracy: *accuracy,
	})
	if errors.Is(res.Err, context.Canceled) {
		// Interrupted mid-run: keep the partial trace, skip the report.
		fmt.Fprintln(os.Stderr, "ahbsim: interrupted")
		if trace != nil {
			if err := writeTrace(trace, *traceFile); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trace (partial): %s -> %s\n", trace.Stats().Format(), *traceFile)
		}
		os.Exit(1)
	}
	if res.Err != nil {
		fatal(res.Err)
	}
	if res.BackendFallback != "" {
		fmt.Fprintf(os.Stderr, "backend: fell back: %s\n", res.BackendFallback)
	}
	if res.Accuracy == engine.AccuracyTransaction {
		fmt.Fprintln(os.Stderr, "accuracy: transaction-level estimate (calibrated; see tools/tlmcheck for the measured error budget)")
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "protocol violations: %d (first: %v)\n", len(res.Violations), res.Violations[0])
	}
	if res.Faults != nil {
		fmt.Printf("injected faults: errors=%d retries=%d splits=%d wait_states=%d addr_flips=%d data_flips=%d\n",
			res.Faults.Errors, res.Faults.Retries, res.Faults.Splits,
			res.Faults.WaitStates, res.Faults.AddrFlips, res.Faults.DataFlips)
	}

	r := res.Report
	fmt.Println("== Instruction energy analysis (paper Table 1) ==")
	fmt.Print(r.FormatTable())
	fmt.Println()
	fmt.Println("== AHB sub-block power contribution (paper Fig. 6) ==")
	fmt.Print(r.FormatBreakdown())
	fmt.Println()
	fmt.Println(r.FormatSummary())
	fmt.Println(res.Metrics.Format())

	if trace != nil {
		if err := writeTrace(trace, *traceFile); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %s -> %s\n", trace.Stats().Format(), *traceFile)
	}
}

// writeTrace exports the trace in the format implied by the file
// extension: .vcd analog VCD, .jsonl/.ndjson JSON lines, otherwise CSV.
func writeTrace(trace *metrics.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch filepath.Ext(path) {
	case ".vcd":
		err = trace.WriteVCD(f)
	case ".jsonl", ".ndjson":
		err = trace.WriteJSONL(f)
	default:
		err = trace.WriteCSV(f)
	}
	// Close exactly once, keeping the first error: a close failure after a
	// clean write still means the trace on disk may be incomplete.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ahbsim:", err)
	os.Exit(1)
}

// runExperiments executes one named experiment (or all) and prints its
// paper-style text output.
func runExperiments(name string, cycles uint64) error {
	type runner struct {
		name string
		fn   func() (string, error)
	}
	runners := []runner{
		{"table1", func() (string, error) {
			r, err := experiments.Table1(cycles)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"figures", func() (string, error) {
			r, err := experiments.Figures(cycles, 100e-9)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"overhead", func() (string, error) {
			r, err := experiments.Overhead(cycles)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"validation", func() (string, error) {
			r, err := experiments.Validation(3000, 42)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"granularity", func() (string, error) {
			r, err := experiments.Granularity(cycles)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"styles", func() (string, error) {
			r, err := experiments.ModelStyles(cycles)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"parametric", func() (string, error) {
			r, err := experiments.Parametric()
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"burst", func() (string, error) {
			r, err := experiments.BurstAblation(cycles)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"pattern", func() (string, error) {
			r, err := experiments.PatternAblation(cycles)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"dpm", func() (string, error) {
			r, err := experiments.DPMSweep(cycles, 5e-12)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"cosim", func() (string, error) {
			r, err := experiments.CoSimDecoder(cycles)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"impl", func() (string, error) {
			r, err := experiments.ImplAblation(8, 3000, 11)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"buses", func() (string, error) {
			r, err := experiments.CompareBuses(cycles)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
		{"topology", func() (string, error) {
			r, err := experiments.TopologyFamilies(cycles)
			if err != nil {
				return "", err
			}
			return r.Text, nil
		}},
	}
	ran := false
	for _, r := range runners {
		if name != "all" && name != r.name {
			continue
		}
		ran = true
		text, err := r.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Printf("== %s ==\n%s\n", r.name, text)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
