package tlm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// goldenFamily is one pinned estimate.
type goldenFamily struct {
	name string
	spec Spec
}

// checkWorkload is tools/tlmcheck's traffic: aggregate demand above the
// horizon, a 2..8-pair mix with short gaps over all three paper slaves.
func checkWorkload(cycles uint64, pat workload.Pattern, burst int, seed int64) workload.Config {
	return workload.Config{
		Seed:         seed,
		NumSequences: int(cycles/20) + 4,
		PairsMin:     2, PairsMax: 8,
		IdleMin: 1, IdleMax: 6,
		AddrSize:   3 * 0x1000,
		Pattern:    pat,
		BurstBeats: burst,
	}
}

// nonuniformSlaves is examples/topologies/nonuniform.json's slave map:
// 0, 2 and 4 wait states, the last slave split over two regions with an
// unmapped gap between them.
func nonuniformSlaves() []topo.Slave {
	return []topo.Slave{
		{Name: "sram", Regions: []topo.AddrRange{{Start: 0, Size: 8192}}},
		{Name: "rom", Waits: 2, Regions: []topo.AddrRange{{Start: 8192, Size: 2048}}},
		{Name: "periph", Waits: 4, Regions: []topo.AddrRange{{Start: 10240, Size: 1024}, {Start: 16384, Size: 1024}}},
	}
}

// goldenFamilies is the estimate matrix TestEstimateGolden pins: the
// tlmcheck families (3 policies x 3 patterns) at a short and a long
// horizon, every burst length, uniform and non-uniform wait states, a
// draining workload, a horizon inside the calibration prefix, a
// private-style analyzer (event-kernel prefix) and a hinted 3-master
// topology.
func goldenFamilies() []goldenFamily {
	global := core.AnalyzerConfig{Style: core.StyleGlobal}
	paper := func(pol ahb.ArbPolicy, waits int) topo.Topology {
		cfg := core.PaperSystem()
		cfg.Policy, cfg.SlaveWaits = pol, waits
		return cfg.Topology()
	}
	var fs []goldenFamily
	add := func(name string, t topo.Topology, az core.AnalyzerConfig, cycles uint64, wls ...workload.Config) {
		fs = append(fs, goldenFamily{name, Spec{Name: name, Topo: t, Analyzer: az, Workloads: wls, Cycles: cycles}})
	}
	patterns := []workload.Pattern{workload.PatternRandom, workload.PatternLowActivity, workload.PatternCounter}
	for _, cycles := range []uint64{24_000, 400_000} {
		for _, pol := range []ahb.ArbPolicy{ahb.PolicySticky, ahb.PolicyFixed, ahb.PolicyRoundRobin} {
			for _, pat := range patterns {
				add(fmt.Sprintf("%s/%s/%d", pol, pat, cycles), paper(pol, 0), global, cycles,
					checkWorkload(cycles, pat, 0, 11))
			}
		}
	}
	const cycles = 24_000
	for _, burst := range []int{4, 8, 16} {
		add(fmt.Sprintf("sticky/random/burst=%d", burst), paper(ahb.PolicySticky, 0), global, cycles,
			checkWorkload(cycles, workload.PatternRandom, burst, 37))
	}
	for _, waits := range []int{1, 2} {
		add(fmt.Sprintf("sticky/random/waits=%d", waits), paper(ahb.PolicySticky, waits), global, cycles,
			checkWorkload(cycles, workload.PatternRandom, 0, 23))
	}
	nonuniform := topo.Topology{
		Name:    "nonuniform",
		Masters: []topo.Master{{Name: "cpu"}, {Name: "dma"}, {Name: "default", Default: true}},
		Slaves:  nonuniformSlaves(),
	}
	add("nonuniform/paper-traffic", nonuniform, global, cycles)
	add("nonuniform/burst=4", nonuniform, global, cycles,
		checkWorkload(cycles, workload.PatternRandom, 4, 41), checkWorkload(cycles, workload.PatternCounter, 8, 43))

	drain := checkWorkload(cycles, workload.PatternRandom, 0, 11)
	drain.NumSequences = cycles/100 + 2
	add("sticky/random/drain", paper(ahb.PolicySticky, 0), global, cycles, drain)

	add("paper/horizon=400", paper(ahb.PolicySticky, 0), global, 400)
	add("paper/horizon=512", paper(ahb.PolicyRoundRobin, 0), global, 512)
	add("paper/private", paper(ahb.PolicySticky, 0), core.AnalyzerConfig{Style: core.StylePrivate}, cycles)

	hinted := topo.Topology{
		Name:   "three-hinted",
		Policy: "rr",
		Masters: []topo.Master{
			{Name: "cpu", Workload: &topo.Workload{Seed: 3, Sequences: 600, PairsMin: 4, PairsMax: 12,
				IdleMin: 2, IdleMax: 20, AddrSize: 0x2000, LocalityWindow: 0x400}},
			{Name: "dma", Workload: &topo.Workload{Seed: 5, Sequences: 200, PairsMin: 1, PairsMax: 4,
				IdleMin: 8, IdleMax: 40, AddrBase: 0x2000, AddrSize: 0x800, Pattern: "counter", BurstBeats: 8}},
			{Name: "dsp", Workload: &topo.Workload{Seed: 7, Sequences: 400, PairsMin: 2, PairsMax: 6,
				IdleMax: 10, AddrBase: 0x2800, AddrSize: 0x400, Pattern: "low-activity", BurstBeats: 4}},
			{Name: "default", Default: true},
		},
		Slaves: nonuniformSlaves(),
	}
	add("three-hinted/rr", hinted, global, cycles)
	return fs
}

// estimateGoldenDigest is the SHA-256 of every golden family's marshaled
// Outcome. It moves only when an estimate does.
const estimateGoldenDigest = "8e14c7af257f0552bbcacb5514d3faf1d04fa8641b57198b5620e36c39af2ba2"

// TestEstimateGolden pins the transaction-level estimates bit for bit:
// a SHA-256 over each golden family's marshaled Report, Stats, Beats,
// Counts and calibration telemetry (the factor as Float64bits). JSON
// prints every float64 in its shortest round-tripping form, so any
// moved bit changes the digest.
func TestEstimateGolden(t *testing.T) {
	h := sha256.New()
	for _, f := range goldenFamilies() {
		out, err := Estimate(context.Background(), f.spec)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		b, err := json.Marshal(struct {
			Report             *core.Report
			Stats              []power.InstructionStat
			Beats              uint64
			Counts             map[string]uint64
			CalibrationCycles  uint64
			CalibrationBackend string
			CalibrationFactor  uint64
		}{out.Report, out.Stats, out.Beats, out.Counts, out.CalibrationCycles,
			out.CalibrationBackend, math.Float64bits(out.CalibrationFactor)})
		if err != nil {
			t.Fatalf("%s: marshal: %v", f.name, err)
		}
		fmt.Fprintf(h, "%s\n%s\n", f.name, b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != estimateGoldenDigest {
		t.Errorf("estimate digest %s, want %s: an estimate moved", got, estimateGoldenDigest)
	}
}
