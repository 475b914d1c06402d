// Command benchmark is the repository's end-to-end benchmark. It drives
// one of four closed-loop workloads through the public entry points of
// the engine, lane, tlm and serve layers, checks every output, and prints
// one JSON result line. Build and run it from the repository root with
//
//	bash benchmark/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run records spans around its own calls into each layer
// and reports per-layer metrics instead. Either way the result line
// holds exactly the metrics BENCHMARK.json lists for that mode, which
// every workload measures; the figures only some workloads have go to
// standard error. NOTES.md explains the workloads, the metrics and the
// noise decisions behind them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind: the compiled binary,
// span dumps and the serve workload's temporary state directories.
const buildDir = ".bench_build"

// manifestPath is the benchmark's manifest, relative to the repository
// root the benchmark runs from.
const manifestPath = "BENCHMARK.json"

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	// rec is nil in untraced runs, so span recording costs nothing there.
	rec *recorder

	attempted, failed int
	problems          []string
	endToEnd          map[string]metric
	perLayer          map[string]metric
}

// fail records a failed output check; any failure makes the run incorrect.
func (r *run) fail(format string, args ...any) {
	const maxKept = 20
	if len(r.problems) < maxKept {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == maxKept {
		r.problems = append(r.problems, "further failures suppressed")
	}
}

func (r *run) e2e(name, unit string, v float64)   { r.endToEnd[name] = metric{v, unit} }
func (r *run) layer(name, unit string, v float64) { r.perLayer[name] = metric{v, unit} }
func (r *run) traced() bool                       { return r.rec != nil }

var workloads = map[string]func(*run){
	"sweep":    func(r *run) { runBatches(r, sweepSpec) },
	"seeds":    func(r *run) { runBatches(r, seedsSpec) },
	"estimate": func(r *run) { runBatches(r, estimateSpec) },
	"serve":    runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, seeds, estimate or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed; every operation derives its traffic from it")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload sweep|seeds|estimate|serve, --seconds >= 1 and --trace 0|1 (got %q, %d, %d)\n",
			*name, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
	}
	if *trace == 1 {
		r.rec = newRecorder()
	}

	spinStart := spin()
	fn(r)
	spinEnd := spin()
	fmt.Fprintf(os.Stderr, "benchmark: host spin probe %.1f ms at start, %.1f ms at end\n", ms(spinStart), ms(spinEnd))
	r.layer("host.spin_ms", "ms", ms(max(spinStart, spinEnd)))

	man, err := readManifest(manifestPath)
	if err != nil {
		r.fail("%v", err)
	}
	measured, listed := r.endToEnd, man.EndToEnd
	if r.traced() {
		measured, listed = r.perLayer, man.PerLayer
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.rec.write(path); err != nil {
			r.fail("writing spans: %v", err)
		} else {
			fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(r.rec.spans), path)
		}
	}
	metrics := selectMetrics(r, measured, listed)
	out := result{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "benchmark: FAIL:", p)
	}
	printMetrics(measured)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// manifestMetric is one metric of BENCHMARK.json.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is the part of BENCHMARK.json the result line must match.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &m)
	}
	if err != nil {
		return m, fmt.Errorf("reading the manifest: %w", err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return m, fmt.Errorf("%s lists no end_to_end or no per_layer metrics", path)
	}
	return m, nil
}

// selectMetrics returns the listed metrics from the measured ones. A
// listed metric the run did not measure, or measured in another unit, is
// a failed check: the result line must hold every one of them.
func selectMetrics(r *run, measured map[string]metric, listed []manifestMetric) map[string]metric {
	out := make(map[string]metric, len(listed))
	for _, l := range listed {
		m, ok := measured[l.Name]
		switch {
		case !ok:
			r.fail("the %s workload did not measure %s", r.workload, l.Name)
		case m.Unit != l.Unit:
			r.fail("%s measured in %s, the manifest says %s", l.Name, m.Unit, l.Unit)
		default:
			out[l.Name] = m
		}
	}
	return out
}

// printMetrics writes a sorted human-readable table to standard error.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// sampleRSS polls the resident set every 2 ms until the returned function
// is called, which returns the largest reading in MB. Freed heap pages go
// back to the OS only gradually, so a peak lasts far longer than the
// polling interval.
func sampleRSS() func() (float64, error) {
	stop := make(chan struct{})
	type peak struct {
		mb  float64
		err error
	}
	out := make(chan peak, 1)
	go func() {
		var p peak
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				out <- peak{err: err}
				return
			}
			p.mb = max(p.mb, mb)
			select {
			case <-stop:
				out <- p
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(stop)
		p := <-out
		return p.mb, p.err
	}
}

// residentMB reads the current resident set from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}
