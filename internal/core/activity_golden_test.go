package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
)

// activityGoldenDigest is the SHA-256 over every Activity().Report() line
// and the Float64bits of every TotalEnergy that TestActivityGolden's grid
// produces. It pins what the paper's Activity store reports, so the store
// can change its bookkeeping without changing a count.
const activityGoldenDigest = "df60576b931fbe47ba4fc8784c574b7a6570f895860cbd901f0fd0a644fb05aa"

// TestActivityGolden runs every style × arbitration policy × slave count
// on the event kernel and the compiled stepper (private style on the
// event kernel only, as the capability table routes it) with activity
// recording on, and hashes the activity report and the total energy.
func TestActivityGolden(t *testing.T) {
	const cycles = 4000
	h := sha256.New()
	for _, style := range []core.Style{core.StyleGlobal, core.StyleLocal, core.StylePrivate} {
		for _, policy := range []ahb.ArbPolicy{ahb.PolicySticky, ahb.PolicyFixed, ahb.PolicyRoundRobin} {
			for _, slaves := range []int{2, 3, 8} {
				backends := []string{"event", "compiled"}
				if style == core.StylePrivate {
					backends = backends[:1]
				}
				for _, be := range backends {
					cfg := core.PaperSystem()
					cfg.Policy, cfg.NumSlaves = policy, slaves
					sys, err := core.NewSystem(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.LoadPaperWorkload(cycles); err != nil {
						t.Fatal(err)
					}
					an, err := core.Attach(sys, core.AnalyzerConfig{Style: style, RecordActivity: true})
					if err != nil {
						t.Fatal(err)
					}
					step := func(c uint64) error { return sys.K.RunCycles(sys.Bus.Clk, c) }
					if be == "compiled" {
						flat, err := sys.Bus.NewFlat()
						if err != nil {
							t.Fatal(err)
						}
						step = flat.RunCycles
					}
					if err := sys.RunContextStepped(nil, cycles, step); err != nil {
						t.Fatalf("%s/%s/%d/%s: %v", style, policy, slaves, be, err)
					}
					fmt.Fprintf(h, "%s/%s/%d/%s\n", style, policy, slaves, be)
					for _, l := range an.Activity().Report() {
						fmt.Fprintf(h, "%s %d %d %x\n", l.Signal, l.Samples, l.BitChanges, math.Float64bits(l.Activity))
					}
					fmt.Fprintf(h, "total %x\n", math.Float64bits(an.FSM().TotalEnergy()))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != activityGoldenDigest {
		t.Errorf("activity digest %s, want %s: an activity count or an energy moved", got, activityGoldenDigest)
	}
}
