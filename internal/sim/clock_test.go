package sim

import "testing"

func TestClockEdges(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", 10*Nanosecond)
	rises, falls := 0, 0
	k.MethodNoInit("rise", func() { rises++ }, clk.Posedge())
	k.MethodNoInit("fall", func() { falls++ }, clk.Negedge())
	if err := k.Run(100 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if rises != 10 {
		t.Errorf("rises=%d, want 10", rises)
	}
	if falls != 10 {
		t.Errorf("falls=%d, want 10 (Run is inclusive of events at the boundary)", falls)
	}
	if clk.Cycles() != 10 {
		t.Errorf("Cycles=%d, want 10", clk.Cycles())
	}
}

func TestClockFrequency(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", 10*Nanosecond)
	if f := clk.FrequencyHz(); f < 99e6 || f > 101e6 {
		t.Errorf("FrequencyHz=%v, want ~100e6", f)
	}
	if clk.Period() != 10*Nanosecond {
		t.Errorf("Period=%v", clk.Period())
	}
}

func TestClockMinimumPeriodClamp(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", 0)
	if clk.Period() < 2 {
		t.Errorf("period must be clamped to >=2ps, got %v", clk.Period())
	}
}

func TestRunCycles(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", 10*Nanosecond)
	if err := k.RunCycles(clk, 25); err != nil {
		t.Fatal(err)
	}
	if clk.Cycles() != 25 {
		t.Errorf("Cycles=%d, want 25", clk.Cycles())
	}
}

// TestClockOddPeriods checks the clock is exact for every period: n
// RunCycles periods produce n rising edges, and edge i fires at
// period/2 + (i-1)*period, the time sim.Flat stamps on cycle i.
func TestClockOddPeriods(t *testing.T) {
	for _, period := range []Time{2, 3, 7, 10000, 10001} {
		k := NewKernel()
		clk := NewClock(k, "clk", period)
		var edges []Time
		k.MethodNoInit("rise", func() { edges = append(edges, k.Now()) }, clk.Posedge())
		if err := k.RunCycles(clk, 25); err != nil {
			t.Fatal(err)
		}
		if clk.Cycles() != 25 || len(edges) != 25 {
			t.Fatalf("period %d: Cycles=%d, %d edges, want 25", period, clk.Cycles(), len(edges))
		}
		for i, at := range edges {
			if want := period/2 + Time(i)*period; at != want {
				t.Errorf("period %d: posedge %d at %d, want %d", period, i+1, at, want)
			}
		}
	}
}

func TestClockedRegisterPipeline(t *testing.T) {
	// A 2-stage register pipeline: q1 <= d, q2 <= q1 on each posedge.
	k := NewKernel()
	clk := NewClock(k, "clk", 10*Nanosecond)
	d := NewSignal(k, "d", 0)
	q1 := NewSignal(k, "q1", 0)
	q2 := NewSignal(k, "q2", 0)
	k.MethodNoInit("regs", func() {
		q1.Write(d.Read())
		q2.Write(q1.Read())
	}, clk.Posedge())
	// Drive d with the cycle index just after each posedge.
	cycle := 0
	k.MethodNoInit("drive", func() {
		cycle++
		d.Write(cycle)
	}, clk.Posedge())
	if err := k.RunCycles(clk, 5); err != nil {
		t.Fatal(err)
	}
	// After 5 posedges: d=5 was written at edge 5; q1 sampled d before that
	// write (two-phase), so q1 holds 4, q2 holds 3.
	if q1.Read() != 4 || q2.Read() != 3 {
		t.Errorf("q1=%d q2=%d, want 4 3", q1.Read(), q2.Read())
	}
}
