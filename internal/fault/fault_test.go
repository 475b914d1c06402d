package fault_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/fault"
)

// scenario builds a paper-system scenario carrying the given plan. A
// non-nil sys receives the built system through the Setup hook, for
// post-run inspection.
func scenario(name string, plan *fault.Plan, cycles uint64, sys **core.System) engine.Scenario {
	sc := engine.Scenario{
		Name:   name,
		System: core.PaperSystem(),
		Cycles: cycles,
		Faults: plan,
	}
	if sys != nil {
		sc.Setup = func(s *core.System) error { *sys = s; return nil }
	}
	return sc
}

// mustRun executes the scenario and fails the test on any error.
func mustRun(t *testing.T, sc engine.Scenario) engine.Result {
	t.Helper()
	res := engine.RunOne(context.Background(), sc)
	if res.Err != nil {
		t.Fatalf("scenario %q failed: %v", sc.Name, res.Err)
	}
	return res
}

// checkConservation asserts the two stream-order energy invariants that
// must survive any fault plan: instruction energies and block energies
// each sum to the report total.
func checkConservation(t *testing.T, r *core.Report) {
	t.Helper()
	if r == nil {
		t.Fatal("nil report")
	}
	var sum float64
	for _, row := range r.Table {
		sum += row.TotalEnergy
	}
	if math.Abs(sum-r.TotalEnergy) > 1e-9*r.TotalEnergy+1e-12 {
		t.Errorf("table sum %g != total %g", sum, r.TotalEnergy)
	}
	var bsum float64
	for _, e := range r.BlockEnergy {
		bsum += e
	}
	if math.Abs(bsum-r.TotalEnergy) > 1e-9*r.TotalEnergy+1e-12 {
		t.Errorf("block sum %g != total %g", bsum, r.TotalEnergy)
	}
}

func TestKindWireNames(t *testing.T) {
	kinds := []fault.Kind{fault.KindError, fault.KindRetry, fault.KindSplit,
		fault.KindWaits, fault.KindAddrFlip, fault.KindDataFlip}
	for _, k := range kinds {
		got, err := fault.ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := fault.ParseKind("bitrot"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &fault.Plan{
		Seed: 42,
		Rules: []fault.Rule{
			{Kind: fault.KindSplit, Slave: 0, Master: -1, Prob: 0.25, Count: 3, Hold: 6},
			{Kind: fault.KindDataFlip, Slave: -1, Master: 1, Mask: 0x11},
		},
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fault.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestRuleTargetDefaults(t *testing.T) {
	// Omitted targets mean "any" (-1); an explicit 0 targets index 0.
	p, err := fault.Parse([]byte(`{"seed":1,"rules":[
		{"kind":"error"},
		{"kind":"error","slave":0},
		{"kind":"addr-flip","master":0}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Rules[0].Slave != -1 || p.Rules[0].Master != -1 {
		t.Errorf("omitted targets = %d/%d, want -1/-1", p.Rules[0].Slave, p.Rules[0].Master)
	}
	if p.Rules[1].Slave != 0 {
		t.Errorf("explicit slave 0 parsed as %d", p.Rules[1].Slave)
	}
	if p.Rules[2].Master != 0 {
		t.Errorf("explicit master 0 parsed as %d", p.Rules[2].Master)
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []string{
		`{"rules":[{"kind":"nope"}]}`,
		`{"rules":[{"kind":"error","prob":1.5}]}`,
		`{"rules":[{"kind":"error","prob":-0.1}]}`,
		`{"rules":[{"kind":"retry","count":-1}]}`,
		`{"rules":[{"kind":"error","slave":-2}]}`,
		`{"rules":[{"kind":"addr-flip","slave":1}]}`,
		`{"fail_first":-1}`,
		`{"seed":1,"rulez":[]}`,
		`{"seed":1} {"seed":2}`,
	}
	for i, s := range bad {
		if _, err := fault.Parse([]byte(s)); err == nil {
			t.Errorf("bad plan %d accepted: %s", i, s)
		}
	}
}

// TestPlanRefusesEndlessRetries checks that a retry or split rule that
// fires at every opportunity with no count is refused: each re-attempt is
// a new opportunity, so no transfer it hits could ever complete. A count
// or a probability below 1 bounds it, and error and wait-state rules
// always let the transfer finish.
func TestPlanRefusesEndlessRetries(t *testing.T) {
	cases := []struct {
		rule string
		ok   bool
	}{
		{`{"kind":"retry"}`, false},
		{`{"kind":"retry","prob":0}`, false},
		{`{"kind":"retry","prob":1}`, false},
		{`{"kind":"retry","slave":1}`, false},
		{`{"kind":"split"}`, false},
		{`{"kind":"split","prob":0}`, false},
		{`{"kind":"split","prob":1}`, false},
		{`{"kind":"retry","count":3}`, true},
		{`{"kind":"retry","prob":0.5}`, true},
		{`{"kind":"split","count":3}`, true},
		{`{"kind":"split","prob":0.5}`, true},
		{`{"kind":"error","prob":1}`, true},
		{`{"kind":"waits","prob":1}`, true},
	}
	for _, c := range cases {
		body := `{"seed":1,"rules":[{"kind":"waits","count":1},` + c.rule + `]}`
		_, err := fault.Parse([]byte(body))
		if c.ok {
			if err != nil {
				t.Errorf("%s refused: %v", c.rule, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s accepted", c.rule)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "rule 1 (") || !strings.Contains(msg, "count") {
			t.Errorf("%s: error %q names no rule index or remedy", c.rule, msg)
		}
		// The same rule built in code is refused at Attach too.
		var r fault.Rule
		if err := json.Unmarshal([]byte(c.rule), &r); err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(core.PaperSystem())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fault.Attach(sys.Bus, sys.Masters, &fault.Plan{Seed: 1, Rules: []fault.Rule{r}}); err == nil {
			t.Errorf("%s: Attach accepted the plan", c.rule)
		}
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := fault.RandomPlan(seed), fault.RandomPlan(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: RandomPlan not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if len(a.Rules) == 0 {
			t.Errorf("seed %d: empty rule set", seed)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("seed %d: invalid random plan: %v", seed, err)
		}
	}
	if reflect.DeepEqual(fault.RandomPlan(1), fault.RandomPlan(2)) {
		t.Error("distinct seeds produced identical plans")
	}
}

func TestAttachRangeChecks(t *testing.T) {
	sys, err := core.NewSystem(core.PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	bad := []*fault.Plan{
		{Seed: 1, Rules: []fault.Rule{{Kind: fault.KindError, Slave: 9, Master: -1}}},
		{Seed: 1, Rules: []fault.Rule{{Kind: fault.KindAddrFlip, Slave: -1, Master: 9}}},
	}
	for i, p := range bad {
		if _, err := fault.Attach(sys.Bus, sys.Masters, p); err == nil {
			t.Errorf("out-of-range plan %d attached", i)
		}
	}
	if _, err := fault.Attach(sys.Bus, sys.Masters, nil); err == nil {
		t.Error("nil plan attached")
	}
}

func TestForcedErrors(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Kind: fault.KindError, Slave: -1, Master: -1, Count: 3},
	}}
	var sys *core.System
	res := mustRun(t, scenario("errors", plan, 2000, &sys))
	if res.Faults == nil || res.Faults.Errors != 3 {
		t.Fatalf("injector stats = %+v, want 3 errors", res.Faults)
	}
	var seen uint64
	for _, m := range sys.Masters {
		seen += m.Stats().Errors
	}
	if seen < 3 {
		t.Errorf("masters observed %d ERROR responses, want >= 3", seen)
	}
	if len(res.Violations) != 0 {
		t.Errorf("forced ERROR must stay protocol-legal: %v", res.Violations[0])
	}
	checkConservation(t, res.Report)
}

func TestForcedRetries(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Kind: fault.KindRetry, Slave: -1, Master: -1, Count: 2, Retries: 2},
	}}
	var sys *core.System
	res := mustRun(t, scenario("retries", plan, 2000, &sys))
	// Each of the 2 firings forces 2 consecutive RETRY responses.
	if res.Faults == nil || res.Faults.Retries != 4 {
		t.Fatalf("injector stats = %+v, want 4 retries", res.Faults)
	}
	var seen uint64
	for _, m := range sys.Masters {
		seen += m.Stats().Retries
	}
	if seen < 4 {
		t.Errorf("masters observed %d RETRY responses, want >= 4", seen)
	}
	if len(res.Violations) != 0 {
		t.Errorf("forced RETRY must stay protocol-legal: %v", res.Violations[0])
	}
	checkConservation(t, res.Report)
}

func TestForcedSplits(t *testing.T) {
	plan := &fault.Plan{Seed: 11, Rules: []fault.Rule{
		{Kind: fault.KindSplit, Slave: -1, Master: -1, Count: 2, Hold: 6},
	}}
	var sys *core.System
	res := mustRun(t, scenario("splits", plan, 3000, &sys))
	if res.Faults == nil || res.Faults.Splits != 2 {
		t.Fatalf("injector stats = %+v, want 2 splits", res.Faults)
	}
	var seen uint64
	for _, m := range sys.Masters {
		seen += m.Stats().Splits
	}
	if seen < 2 {
		t.Errorf("masters observed %d SPLIT responses, want >= 2", seen)
	}
	if got := sys.Bus.SplitMask(); got != 0 {
		t.Errorf("split mask=%#x after run, want 0 (every split resumed)", got)
	}
	if len(res.Violations) != 0 {
		t.Errorf("forced SPLIT must stay protocol-legal: %v", res.Violations[0])
	}
	checkConservation(t, res.Report)
}

func TestForcedWaitStates(t *testing.T) {
	var baseSys, sys *core.System
	mustRun(t, scenario("waits-base", nil, 2000, &baseSys))
	plan := &fault.Plan{Seed: 13, Rules: []fault.Rule{
		{Kind: fault.KindWaits, Slave: -1, Master: -1, Count: 2, Waits: 3},
	}}
	res := mustRun(t, scenario("waits", plan, 2000, &sys))
	if res.Faults == nil || res.Faults.WaitStates != 6 {
		t.Fatalf("injector stats = %+v, want 6 wait states", res.Faults)
	}
	waitSum := func(s *core.System) uint64 {
		var w uint64
		for _, m := range s.Masters {
			w += m.Stats().WaitCycle
		}
		return w
	}
	if bw, fw := waitSum(baseSys), waitSum(sys); fw <= bw {
		t.Errorf("faulted run waits=%d, want more than baseline %d", fw, bw)
	}
	if len(res.Violations) != 0 {
		t.Errorf("forced wait states must stay protocol-legal: %v", res.Violations[0])
	}
	checkConservation(t, res.Report)
}

// TestFlipsPerturbEnergy is the macromodel link: address and data flips
// change the Hamming-distance terms of E_DEC/E_MUX, so total energy must
// move — while both conservation invariants keep holding.
func TestFlipsPerturbEnergy(t *testing.T) {
	const cycles = 2000
	base := mustRun(t, scenario("flip-base", nil, cycles, nil))
	for _, tc := range []struct {
		name string
		kind fault.Kind
	}{
		{"addr", fault.KindAddrFlip},
		{"data", fault.KindDataFlip},
	} {
		plan := &fault.Plan{Seed: 5, Rules: []fault.Rule{
			{Kind: tc.kind, Slave: -1, Master: -1},
		}}
		res := mustRun(t, scenario("flip-"+tc.name, plan, cycles, nil))
		if res.Faults == nil || res.Faults.Total() == 0 {
			t.Fatalf("%s: no flips fired: %+v", tc.name, res.Faults)
		}
		if math.Float64bits(res.Report.TotalEnergy) == math.Float64bits(base.Report.TotalEnergy) {
			t.Errorf("%s flips left total energy bit-identical (%g)", tc.name, base.Report.TotalEnergy)
		}
		checkConservation(t, res.Report)
	}
}

// TestReplayDeterminism is the core guarantee: the same (scenario, plan)
// pair replays byte-identically — energies compared as raw float bits,
// injector counters and monitor counts exactly equal.
func TestReplayDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		sc := scenario("replay", fault.RandomPlan(seed), 2500, nil)
		a := mustRun(t, sc)
		b := mustRun(t, sc)
		if math.Float64bits(a.Report.TotalEnergy) != math.Float64bits(b.Report.TotalEnergy) {
			t.Errorf("seed %d: energy %g != %g (not bit-identical)",
				seed, a.Report.TotalEnergy, b.Report.TotalEnergy)
		}
		if a.Beats != b.Beats {
			t.Errorf("seed %d: beats %d != %d", seed, a.Beats, b.Beats)
		}
		if !reflect.DeepEqual(a.Faults, b.Faults) {
			t.Errorf("seed %d: fault stats %+v != %+v", seed, a.Faults, b.Faults)
		}
		if !reflect.DeepEqual(a.Counts, b.Counts) {
			t.Errorf("seed %d: monitor counts diverged", seed)
		}
		checkConservation(t, a.Report)
	}
}

// TestSplitEnergyBalance soaks the arbiter FSM through repeated mask
// windows and checks the energy accounting still balances to the total.
func TestSplitEnergyBalance(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Kind: fault.KindSplit, Slave: -1, Master: -1, Prob: 0.2, Hold: 5},
	}}
	var sys *core.System
	res := mustRun(t, scenario("split-energy", plan, 4000, &sys))
	if res.Faults == nil || res.Faults.Splits == 0 {
		t.Fatal("no splits fired")
	}
	if got := sys.Bus.SplitMask(); got != 0 {
		t.Errorf("split mask=%#x after run, want 0", got)
	}
	checkConservation(t, res.Report)
}

// TestForcedResponsesOverWaitStates runs every slave-side kind on a
// memory slave with 0-4 wait states of its own. Forced responses must
// stay protocol-legal at any wait count: the script finishes, the
// monitor stays clean and each read returns the last value written to
// its address (an errored write still lands in memory). Slave-side-only
// random plans on the paper system must likewise trip no rule.
func TestForcedResponsesOverWaitStates(t *testing.T) {
	rules := []fault.Rule{
		{Kind: fault.KindError},
		{Kind: fault.KindRetry},
		{Kind: fault.KindSplit},
		{Kind: fault.KindWaits},
		{Kind: fault.KindWaits, Waits: 3},
	}
	for waits := 0; waits <= 4; waits++ {
		for _, r := range rules {
			r.Slave, r.Master, r.Count = 0, -1, 1
			name := fmt.Sprintf("%s(waits %d) on a %d-wait slave", r.Kind, r.Waits, waits)
			cfg := core.PaperSystem()
			cfg.NumActiveMasters, cfg.WithDefaultMaster, cfg.NumSlaves, cfg.SlaveWaits = 1, false, 1, waits
			sys, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := sys.Masters[0]
			m.KeepResults(true)
			m.Enqueue(ahb.Sequence{Ops: []ahb.Op{
				{Kind: ahb.OpWrite, Addr: 0x10, Data: []uint32{0xAA}},
				{Kind: ahb.OpWrite, Addr: 0x20, Data: []uint32{0xBB}},
				{Kind: ahb.OpRead, Addr: 0x20},
				{Kind: ahb.OpRead, Addr: 0x10},
			}})
			inj, err := fault.Attach(sys.Bus, sys.Masters, &fault.Plan{Seed: 1, Rules: []fault.Rule{r}})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(200); err != nil {
				t.Fatal(err)
			}
			if st := inj.Stats(); st.Total() == 0 {
				t.Errorf("%s: nothing injected", name)
			}
			if !m.Done() {
				t.Errorf("%s: script did not finish", name)
			}
			for _, e := range sys.Monitor.Errors() {
				t.Errorf("%s: protocol violation: %v", name, e)
			}
			want := map[uint32]uint32{0x10: 0xAA, 0x20: 0xBB}
			reads := 0
			for _, res := range m.Results() {
				if res.Write {
					continue
				}
				reads++
				if res.Data != want[res.Addr] {
					t.Errorf("%s: read %#x@%#x, want %#x", name, res.Data, res.Addr, want[res.Addr])
				}
			}
			if reads != 2 {
				t.Errorf("%s: %d reads completed, want 2", name, reads)
			}
			for addr, v := range want {
				if got := sys.Slaves[0].Peek(addr); got != v {
					t.Errorf("%s: mem[%#x]=%#x, want %#x", name, addr, got, v)
				}
			}
		}
	}

	for waits := 0; waits <= 4; waits++ {
		for seed := int64(1); seed <= 16; seed++ {
			plan := fault.RandomPlan(seed)
			var slaveSide []fault.Rule
			for _, r := range plan.Rules {
				if r.Kind != fault.KindAddrFlip && r.Kind != fault.KindDataFlip {
					slaveSide = append(slaveSide, r)
				}
			}
			if len(slaveSide) == 0 {
				continue
			}
			plan.Rules = slaveSide
			sc := scenario(fmt.Sprintf("slave-side-%d-waits-%d", seed, waits), plan, 3000, nil)
			sc.System.SlaveWaits = waits
			res := mustRun(t, sc)
			if len(res.Violations) != 0 {
				t.Errorf("%s: %d violations (first: %v)", sc.Name, len(res.Violations), res.Violations[0])
			}
			checkConservation(t, res.Report)
		}
	}
}
