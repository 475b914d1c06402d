// Command benchgate compares two Go benchmark output files (base and
// head, as produced by `go test -bench`) and exits nonzero when any
// benchmark present in both regressed by more than the threshold on
// ns/op. CI runs it after benchstat to turn the human-readable comparison
// into a hard gate: a >10% slowdown of the simulation-kernel benchmarks
// fails the pull request.
//
// -unit picks another per-op figure to compare, such as allocs/op.
// Allocation counts are deterministic, so CI gates them exactly with
// -unit allocs/op -threshold 0: any rise over the base fails, including
// one from zero. A benchmark whose base run did not report the figure
// counts as new and never gates.
//
// Multiple -count repetitions of the same benchmark are reduced to their
// median, so a single noisy run cannot flip the verdict. Benchmarks that
// exist on only one side (newly added or deleted) are reported but never
// gate, otherwise the first PR introducing a benchmark could not merge —
// with one exception: a head file that carries test-failure markers
// (FAIL/panic) or that contains no benchmarks at all while the base has
// some means the head suite errored rather than that the benchmarks were
// removed, and that fails the gate instead of passing vacuously.
//
// -min-speedup adds absolute assertions on the head file alone: for
// "tlm:8x", every head benchmark with a path segment "tlm" must be at
// least 8 times faster (median ns/op) than each sibling benchmark that
// differs only in that segment (e.g. .../tlm/sweep versus
// .../compiled/sweep). This keeps a claimed backend win from silently
// eroding even when the base side has no baseline to diff against.
//
// Usage:
//
//	benchgate [-unit ns/op] [-threshold 10] [-min-speedup label:Nx[,label:Nx...]] base.txt head.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	unit := flag.String("unit", "ns/op", "the per-op figure to compare, e.g. ns/op or allocs/op")
	threshold := flag.Float64("threshold", 10, "maximum allowed regression of that figure, percent")
	var speedups speedupFlag
	flag.Var(&speedups, "min-speedup",
		"comma-separated label:Nx assertions, e.g. tlm:8x (head benchmarks with a\n"+
			"path segment equal to label must beat each sibling by the factor)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-unit ns/op] [-threshold pct] [-min-speedup label:Nx] base.txt head.txt")
		os.Exit(2)
	}
	base, baseErrored, err := parseFile(flag.Arg(0), *unit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	head, headErrored, err := parseFile(flag.Arg(1), *unit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if baseErrored {
		// CI tolerates a failing base run (the base commit may predate a
		// benchmark package); its surviving samples still compare, but say
		// so in case a "gone" row below is really a base-side casualty.
		fmt.Println("note: base suite reported errors; comparing the samples it did produce")
	}
	report, failed := compare(base, head, *threshold, *unit)
	fmt.Print(report)
	if msg, errored := headSuiteError(base, head, headErrored); errored {
		fmt.Printf("FAIL: %s\n", msg)
		failed = true
	}
	if len(speedups) > 0 {
		sr, sf := checkSpeedups(head, speedups)
		fmt.Print(sr)
		failed = failed || sf
	}
	if failed {
		os.Exit(1)
	}
}

// headSuiteError decides whether the head file reflects a broken benchmark
// run — failure markers in the output, or no benchmark lines at all while
// the base has some — as opposed to benchmarks being legitimately removed.
func headSuiteError(base, head map[string][]float64, headErrored bool) (string, bool) {
	switch {
	case headErrored:
		return "head suite errored (FAIL/panic in output); not treating missing benchmarks as removed", true
	case len(head) == 0 && len(base) > 0:
		return "head produced no benchmarks while base has some; suite likely failed to run", true
	}
	return "", false
}

// parseFile reads one benchmark output file into name -> samples of unit,
// also reporting whether the file carries test-failure markers.
func parseFile(path, unit string) (map[string][]float64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	return parse(f, unit)
}

// parse extracts the samples of unit (ns/op, allocs/op, ...) per
// benchmark name from `go test -bench` output; a benchmark line without
// that unit contributes nothing. Lines that are not benchmark results
// are ignored, but FAIL and panic markers are noted so callers can tell
// an errored suite from one whose benchmarks were removed.
func parse(r io.Reader, unit string) (map[string][]float64, bool, error) {
	out := map[string][]float64{}
	errored := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) > 0 && fields[0] == "FAIL" ||
			strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "panic:") {
			errored = true
			continue
		}
		// Benchmark lines look like:
		//   BenchmarkName-8   12345   678.9 ns/op   [more unit pairs...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimCPUSuffix(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != unit {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, errored, fmt.Errorf("bad %s value %q for %s", unit, fields[i], name)
			}
			out[name] = append(out[name], v)
			break
		}
	}
	return out, errored, sc.Err()
}

// trimCPUSuffix drops the -<GOMAXPROCS> suffix go test appends, so runs
// on machines with different core counts still compare.
func trimCPUSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// median reduces repeated samples of one benchmark; it assumes vs is
// non-empty.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// speedupReq is one parsed -min-speedup assertion.
type speedupReq struct {
	label  string  // benchmark path segment naming the fast variant
	factor float64 // required median-ns/op ratio sibling/labeled
}

// speedupFlag parses comma-separated label:Nx entries.
type speedupFlag []speedupReq

func (f *speedupFlag) String() string {
	parts := make([]string, len(*f))
	for i, r := range *f {
		parts[i] = fmt.Sprintf("%s:%gx", r.label, r.factor)
	}
	return strings.Join(parts, ",")
}

func (f *speedupFlag) Set(s string) error {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		label, factorStr, ok := strings.Cut(part, ":")
		if !ok || label == "" || !strings.HasSuffix(factorStr, "x") {
			return fmt.Errorf("bad -min-speedup entry %q (want label:Nx)", part)
		}
		factor, err := strconv.ParseFloat(strings.TrimSuffix(factorStr, "x"), 64)
		if err != nil || factor <= 0 {
			return fmt.Errorf("bad -min-speedup factor in %q", part)
		}
		*f = append(*f, speedupReq{label: label, factor: factor})
	}
	return nil
}

// checkSpeedups verifies each -min-speedup assertion against the head
// samples: every head benchmark containing the label as a path segment is
// paired with each sibling differing only in that segment, and the
// sibling's median ns/op must be at least factor times the labeled one's.
// A label with no such pair fails — an absent benchmark must not satisfy
// a speedup claim vacuously.
func checkSpeedups(head map[string][]float64, reqs []speedupReq) (string, bool) {
	names := make([]string, 0, len(head))
	for name := range head {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	failed := false
	for _, req := range reqs {
		pairs := 0
		for _, name := range names {
			segs := strings.Split(name, "/")
			for i, seg := range segs {
				if seg != req.label {
					continue
				}
				for _, other := range names {
					if !siblingAt(segs, strings.Split(other, "/"), i) {
						continue
					}
					pairs++
					ratio := median(head[other]) / median(head[name])
					verdict := "ok"
					if ratio < req.factor {
						verdict = "FAIL"
						failed = true
					}
					fmt.Fprintf(&b, "min-speedup %s: %s vs %s: %.2fx (need %gx)  %s\n",
						req.label, name, other, ratio, req.factor, verdict)
				}
			}
		}
		if pairs == 0 {
			fmt.Fprintf(&b, "min-speedup %s: FAIL: no head benchmark pair differs only in segment %q\n",
				req.label, req.label)
			failed = true
		}
	}
	return b.String(), failed
}

// siblingAt reports whether two split benchmark names differ exactly at
// segment i (and bs is a genuine other variant there).
func siblingAt(as, bs []string, i int) bool {
	if len(as) != len(bs) || bs[i] == as[i] {
		return false
	}
	for j := range as {
		if j != i && as[j] != bs[j] {
			return false
		}
	}
	return true
}

// compare renders a per-benchmark delta table of unit's medians and
// reports whether any shared benchmark regressed beyond threshold
// percent. A rise from a base of zero is a regression at any threshold.
func compare(base, head map[string][]float64, threshold float64, unit string) (string, bool) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	failed := false
	shared := 0
	fmt.Fprintf(&b, "%-44s %14s %14s %9s\n", "benchmark", "base "+unit, "head "+unit, "delta")
	for _, name := range names {
		hv, ok := head[name]
		if !ok {
			fmt.Fprintf(&b, "%-44s %14.1f %14s %9s\n", name, median(base[name]), "-", "gone")
			continue
		}
		shared++
		bm, hm := median(base[name]), median(hv)
		deltaPct := 0.0
		switch {
		case bm > 0:
			deltaPct = (hm - bm) / bm * 100
		case hm > bm:
			deltaPct = math.Inf(1)
		}
		verdict := ""
		if deltaPct > threshold {
			verdict = "  REGRESSION"
			failed = true
		}
		fmt.Fprintf(&b, "%-44s %14.1f %14.1f %+8.1f%%%s\n", name, bm, hm, deltaPct, verdict)
	}
	for name := range head {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(&b, "%-44s %14s %14.1f %9s\n", name, "-", median(head[name]), "new")
		}
	}
	if shared == 0 {
		fmt.Fprintf(&b, "no shared benchmarks between base and head; nothing to gate\n")
	} else if failed {
		fmt.Fprintf(&b, "FAIL: at least one benchmark regressed more than %.0f%% on %s\n", threshold, unit)
	} else {
		fmt.Fprintf(&b, "ok: no shared benchmark regressed more than %.0f%% on %s\n", threshold, unit)
	}
	return b.String(), failed
}
