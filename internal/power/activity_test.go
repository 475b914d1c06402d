package power

import "testing"

func TestActivityUnknownSignalQueries(t *testing.T) {
	a := Activity{Samples: 3}
	a.BitChanges[SignalHADDR] = 4
	if a.BitChangeCount("nope") != 0 {
		t.Error("unknown signal count must be 0")
	}
	if a.SwitchingActivity("nope") != 0 {
		t.Error("unknown signal activity must be 0")
	}
	if a.BitChangeCount("HADDR") != 4 || a.SwitchingActivity("HADDR") != 2 {
		t.Errorf("HADDR count %d activity %v, want 4 and 2", a.BitChangeCount("HADDR"), a.SwitchingActivity("HADDR"))
	}
}

func TestActivityReportSortedAndComplete(t *testing.T) {
	var a Activity
	for _, l := range a.Report() {
		if l.Samples != 0 || l.BitChanges != 0 || l.Activity != 0 {
			t.Errorf("empty store reports %+v", l)
		}
	}
	a.Samples = 5
	for s := range a.BitChanges {
		a.BitChanges[s] = uint64(s)
	}
	lines := a.Report()
	if len(lines) != int(NumSignals) {
		t.Fatalf("lines=%d, want %d", len(lines), NumSignals)
	}
	names := []string{"HADDR", "HBUSREQ", "HGRANT", "HMASTER", "HRDATA", "HSEL", "HTRANS", "HWDATA"}
	for i, l := range lines {
		want := ActivityLine{Signal: names[i], Samples: 5, BitChanges: uint64(i), Activity: float64(i) / 4}
		if l != want {
			t.Errorf("line %d = %+v, want %+v", i, l, want)
		}
	}
}

func TestBlockBreakdown(t *testing.T) {
	var bd Breakdown
	bd.Add(BlockM2S, 6)
	bd.Add(BlockDEC, 1)
	bd.Add(BlockARB, 1)
	bd.Add(BlockS2M, 2)
	if bd.Total() != 10 {
		t.Errorf("Total=%v, want 10", bd.Total())
	}
	if bd.Share(BlockM2S) != 0.6 {
		t.Errorf("Share(M2S)=%v, want 0.6", bd.Share(BlockM2S))
	}
	if bd.Energy(BlockS2M) != 2 {
		t.Errorf("Energy(S2M)=%v, want 2", bd.Energy(BlockS2M))
	}
	if len(Blocks()) != int(NumBlocks) {
		t.Error("Blocks() incomplete")
	}
}

func TestBlockBreakdownEmptyAndBogus(t *testing.T) {
	var bd Breakdown
	if bd.Share(BlockARB) != 0 {
		t.Error("empty breakdown share must be 0")
	}
	bd.Add(Block(99), 5) // ignored
	if bd.Total() != 0 {
		t.Error("out-of-range block must be ignored")
	}
	if bd.Energy(Block(99)) != 0 || bd.Share(Block(99)) != 0 {
		t.Error("out-of-range queries must be 0")
	}
}

func TestBlockNames(t *testing.T) {
	if BlockM2S.String() != "M2S" || BlockDEC.String() != "DEC" ||
		BlockARB.String() != "ARB" || BlockS2M.String() != "S2M" {
		t.Error("block names must match Fig. 6")
	}
	if Block(42).String() != "BLOCK(42)" {
		t.Error("unknown block formatting")
	}
}
