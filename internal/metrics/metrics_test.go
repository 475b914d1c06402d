package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"ahbpower/internal/power"
	"ahbpower/internal/sim"
	"ahbpower/internal/stats"
)

// sampleAt builds a sample at the given nanosecond with equal per-block
// energies summing to e.
func sampleAt(ns uint64, st power.State, e float64) Sample {
	return Sample{
		Cycle: ns / 10, Time: sim.Time(ns) * sim.Nanosecond, State: st,
		EM2S: e / 4, EDEC: e / 4, EARB: e / 4, ES2M: e / 4, ETotal: e,
	}
}

func TestNewTraceValidation(t *testing.T) {
	for _, w := range []float64{0, -1e-9, math.NaN(), math.Inf(1)} {
		if _, err := NewTrace(TraceConfig{Window: w}); err == nil {
			t.Errorf("Window=%g must be rejected", w)
		}
	}
	if _, err := NewTrace(TraceConfig{Window: 1e-9}); err != nil {
		t.Errorf("valid window rejected: %v", err)
	}
}

func TestWindowingAndConservation(t *testing.T) {
	tr, err := NewTrace(TraceConfig{Window: 100e-9, PerBlock: true, PerInstruction: true})
	if err != nil {
		t.Fatal(err)
	}
	// Three 100 ns windows: cycles at 10..90, then a gap spanning an
	// entire empty window, then one cycle at 250 ns.
	var want float64
	for ns := uint64(10); ns <= 90; ns += 10 {
		e := 1e-12 * float64(ns)
		want += e
		tr.ObserveCycle(sampleAt(ns, power.Write, e))
	}
	tr.ObserveCycle(sampleAt(250, power.Read, 5e-12))
	want += 5e-12

	wins := tr.Windows()
	if len(wins) != 3 {
		t.Fatalf("windows=%d, want 3 (one empty gap window)", len(wins))
	}
	if wins[0].Start != 0 || wins[1].Start != 100e-9 || wins[2].Start != 200e-9 {
		t.Errorf("window starts %g,%g,%g", wins[0].Start, wins[1].Start, wins[2].Start)
	}
	if wins[0].Cycles != 9 || wins[1].Cycles != 0 || wins[2].Cycles != 1 {
		t.Errorf("window cycles %d,%d,%d, want 9,0,1", wins[0].Cycles, wins[1].Cycles, wins[2].Cycles)
	}
	if wins[1].Energy != 0 || wins[1].Power != 0 {
		t.Errorf("empty window carries energy=%g power=%g", wins[1].Energy, wins[1].Power)
	}
	if got := tr.Energy(); got != want {
		t.Errorf("Energy()=%g, want %g (stream-order sum)", got, want)
	}
	if last := wins[len(wins)-1].CumEnergy; last != tr.Energy() {
		t.Errorf("last CumEnergy=%g, want Energy()=%g", last, tr.Energy())
	}
	// Per-block energies: each block got a quarter of each window.
	for _, b := range power.Blocks() {
		if got, want := wins[0].Block[b], wins[0].Energy/4; math.Abs(got-want) > 1e-18 {
			t.Errorf("window0 %s energy=%g, want %g", b, got, want)
		}
	}
	// Window power is E/W.
	if got, want := wins[0].Power, wins[0].Energy/100e-9; got != want {
		t.Errorf("window0 power=%g, want %g", got, want)
	}
	// The power series has one point per window, at the window centre.
	ps := tr.PowerSeries()
	if ps.Len() != len(wins) {
		t.Fatalf("power series has %d points for %d windows", ps.Len(), len(wins))
	}
	for i, mid := range []float64{50e-9, 150e-9, 250e-9} {
		if p := ps.Points[i]; math.Abs(p.X-mid) > 1e-18 || p.Y != wins[i].Power {
			t.Errorf("point %d = (%g, %g), want (%g, %g)", i, p.X, p.Y, mid, wins[i].Power)
		}
	}

	st := tr.Stats()
	if st.Cycles != 10 || st.Windows != 3 || st.Energy != tr.Energy() {
		t.Errorf("stats %+v inconsistent with trace", st)
	}
	peak := math.Max(wins[0].Power, wins[2].Power)
	if st.PeakPower != peak {
		t.Errorf("peak=%g, want %g", st.PeakPower, peak)
	}
}

func TestInstructionSeriesDense(t *testing.T) {
	tr, _ := NewTrace(TraceConfig{Window: 100e-9, PerInstruction: true})
	// WRITE appears in window 0 (transition Write->Write), READ only from
	// window 1 on.
	tr.ObserveCycle(sampleAt(10, power.Write, 1e-12))
	tr.ObserveCycle(sampleAt(20, power.Write, 1e-12))
	tr.ObserveCycle(sampleAt(110, power.Read, 2e-12))
	tr.ObserveCycle(sampleAt(210, power.Read, 3e-12))

	series := tr.InstructionSeries()
	ww := series[power.Instruction{From: power.Write, To: power.Write}.String()]
	wr := series[power.Instruction{From: power.Write, To: power.Read}.String()]
	rr := series[power.Instruction{From: power.Read, To: power.Read}.String()]
	if ww == nil || wr == nil || rr == nil {
		t.Fatalf("missing instruction series, have %v", keys(series))
	}
	// From first appearance onward every window contributes one point,
	// zero-filled when the instruction did not execute.
	if got := ww.Len(); got != 3 {
		t.Errorf("WRITE_WRITE series has %d points, want 3 (dense from window 0)", got)
	}
	if ww.Points[1].Y != 0 || ww.Points[2].Y != 0 {
		t.Errorf("WRITE_WRITE later windows %v, want zero-filled", ww.Points[1:])
	}
	if got := rr.Len(); got != 1 {
		t.Errorf("READ_READ series has %d points, want 1 (first executed in last window)", got)
	}
}

func keys(m map[string]*stats.Series) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestObserveAfterFinalizeStickyError(t *testing.T) {
	tr, _ := NewTrace(TraceConfig{Window: 100e-9})
	tr.ObserveCycle(sampleAt(10, power.Write, 1e-12))
	if err := tr.Finish(); err != nil {
		t.Fatalf("Finish on a well-used trace: %v", err)
	}
	wantEnergy := tr.Energy()
	wantWindows := len(tr.Windows())
	// A mis-attached observer delivering cycles after finalization must
	// not panic (it would kill a long-lived server); the cycles are
	// dropped and the condition surfaces as a sticky error.
	tr.ObserveCycle(sampleAt(20, power.Write, 1e-12))
	tr.ObserveBatch([]Sample{sampleAt(30, power.Read, 2e-12)})
	if tr.Err() == nil {
		t.Fatal("Err after post-finalization ObserveCycle = nil, want sticky error")
	}
	if err := tr.Finish(); err == nil {
		t.Error("Finish = nil, want the sticky error")
	}
	if got := tr.Energy(); got != wantEnergy {
		t.Errorf("dropped samples changed Energy: %g, want %g", got, wantEnergy)
	}
	if got := len(tr.Windows()); got != wantWindows {
		t.Errorf("dropped samples changed window count: %d, want %d", got, wantWindows)
	}
	// One-shot consumers observe the misuse through the exporters.
	if err := tr.WriteCSV(io.Discard); err == nil {
		t.Error("WriteCSV after misuse = nil, want the sticky error")
	}
	if err := tr.WriteJSONL(io.Discard); err == nil {
		t.Error("WriteJSONL after misuse = nil, want the sticky error")
	}
	if err := tr.WriteVCD(io.Discard); err == nil {
		t.Error("WriteVCD after misuse = nil, want the sticky error")
	}
}

func TestWriteCSV(t *testing.T) {
	tr, _ := NewTrace(TraceConfig{Window: 100e-9, PerBlock: true})
	tr.ObserveCycle(sampleAt(10, power.Write, 4e-12))
	tr.ObserveCycle(sampleAt(110, power.Read, 8e-12))
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 windows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "t_s,power_W,energy_J,cum_energy_J,cycles,M2S_W,DEC_W,ARB_W,S2M_W" {
		t.Errorf("header %q", lines[0])
	}
	if cols := strings.Split(lines[1], ","); len(cols) != 9 {
		t.Errorf("row has %d columns, want 9", len(cols))
	}
}

func TestWriteJSONL(t *testing.T) {
	tr, _ := NewTrace(TraceConfig{Window: 100e-9, PerBlock: true, PerInstruction: true})
	tr.ObserveCycle(sampleAt(10, power.Write, 4e-12))
	tr.ObserveCycle(sampleAt(20, power.Read, 6e-12))
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var rows []map[string]any
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", len(rows)+1, err)
		}
		rows = append(rows, obj)
	}
	if len(rows) != 2 {
		t.Fatalf("JSONL has %d rows, want 1 window + 1 summary", len(rows))
	}
	// Both cycles fall in the lone window, so its energy is the trace
	// total — compared exactly, since both take the same float path.
	if want := tr.Energy(); rows[0]["energy_J"].(float64) != want {
		t.Errorf("window energy %v, want %g", rows[0]["energy_J"], want)
	}
	if _, ok := rows[0]["instr_energy_J"]; !ok {
		t.Error("window row lacks instr_energy_J")
	}
	sum, ok := rows[len(rows)-1]["summary"].(map[string]any)
	if !ok {
		t.Fatal("last row is not the summary object")
	}
	if sum["energy_J"].(float64) != tr.Energy() {
		t.Errorf("summary energy %v, want %g", sum["energy_J"], tr.Energy())
	}
}

func TestWriteVCD(t *testing.T) {
	tr, _ := NewTrace(TraceConfig{Window: 100e-9, PerBlock: true})
	tr.ObserveCycle(sampleAt(10, power.Write, 4e-12))
	tr.ObserveCycle(sampleAt(110, power.Read, 8e-12))
	var buf bytes.Buffer
	if err := tr.WriteVCD(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"$timescale 1ps $end",
		"$var real 64",
		"total", "M2S", "S2M",
		"#0\n", "#100000\n", "#200000\n", // window boundaries in ps
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD lacks %q:\n%s", want, out)
		}
	}
	// Real-valued emission syntax.
	if !strings.Contains(out, "r0.0") && !strings.Contains(out, "r4") {
		t.Errorf("VCD has no real emissions:\n%s", out)
	}
}

func TestRunMetricsFormat(t *testing.T) {
	m := NewRunMetrics(1000, 4000, 0, 2_000_000 /* 2 ms */)
	if m.CyclesPerSec != 500e3 {
		t.Errorf("throughput=%g, want 5e5", m.CyclesPerSec)
	}
	if !strings.Contains(m.Format(), "cycles=1000") {
		t.Errorf("format %q", m.Format())
	}
}

func TestAggregate(t *testing.T) {
	runs := []RunMetrics{
		NewRunMetrics(1000, 0, 0, 10_000_000),
		NewRunMetrics(3000, 0, 0, 30_000_000),
	}
	b := Aggregate(runs, 1, 2, 40_000_000 /* 40 ms wall */)
	if b.Scenarios != 3 || b.Failed != 1 {
		t.Errorf("scenarios=%d failed=%d, want 3/1", b.Scenarios, b.Failed)
	}
	if b.TotalCycles != 4000 {
		t.Errorf("cycles=%d, want 4000", b.TotalCycles)
	}
	// Busy 40 ms over 2 workers * 40 ms wall = 50%.
	if math.Abs(b.Utilization-0.5) > 1e-9 {
		t.Errorf("utilization=%g, want 0.5", b.Utilization)
	}
	if math.Abs(b.CyclesPerSec-100e3) > 1e-6 {
		t.Errorf("throughput=%g, want 1e5", b.CyclesPerSec)
	}
	if b.Latency.Max != 0.03 {
		t.Errorf("latency max=%g, want 0.03", b.Latency.Max)
	}
}
