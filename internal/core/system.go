// Package core is the executable form of the paper's methodology: it
// builds the instrumented AHB system (the testbench of §5 — two masters, a
// simple default master and three slaves), runs system-level simulations,
// and produces the paper's outputs: the per-instruction energy table
// (Table 1), per-sub-block power traces (Figs. 3-5) and the sub-block
// contribution breakdown (Fig. 6).
package core

import (
	"context"
	"fmt"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/power"
	"ahbpower/internal/sim"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// SystemConfig is the count-based legacy description of an AHB system:
// N equal slaves in equal contiguous regions, the default master on the
// last port. It remains fully supported as a thin canonicalization into
// the declarative topo.Topology (see Topology) — new code and new
// capabilities (explicit address maps, per-slave wait states, per-master
// workload hints) should describe systems as a topo.Topology and build
// through NewSystemTopo instead.
type SystemConfig struct {
	// NumActiveMasters is the number of workload-driven masters.
	NumActiveMasters int
	// WithDefaultMaster adds the paper's "simple default master": an extra
	// port that never requests and drives IDLE whenever granted.
	WithDefaultMaster bool
	NumSlaves         int
	SlaveWaits        int
	ClockPeriod       sim.Time
	DataWidth         int
	Policy            ahb.ArbPolicy
	SlaveRegionSize   uint32 // bytes per slave region (default 4 KB)
}

// PaperSystem returns the configuration of the paper's testbench: two
// masters, a simple default master and three slaves on a 100 MHz AHB.
func PaperSystem() SystemConfig {
	return SystemConfig{
		NumActiveMasters:  2,
		WithDefaultMaster: true,
		NumSlaves:         3,
		SlaveWaits:        0,
		ClockPeriod:       10 * sim.Nanosecond, // 100 MHz
		DataWidth:         32,
		Policy:            ahb.PolicySticky,
	}
}

// Topology expands the count-based configuration into its canonical
// declarative topology. This is the compatibility contract: NewSystem is
// NewSystemTopo over this expansion, so a count-based system and its
// explicit topology twin build byte-identical simulations and share one
// canonical cache key.
func (cfg SystemConfig) Topology() topo.Topology {
	rs := cfg.SlaveRegionSize
	if rs == 0 {
		rs = topo.DefaultRegionSize
	}
	t := topo.Topology{
		ClockPeriodPS: uint64(cfg.ClockPeriod / sim.Picosecond),
		DataWidth:     cfg.DataWidth,
		Policy:        cfg.Policy.String(),
	}
	for m := 0; m < cfg.NumActiveMasters; m++ {
		t.Masters = append(t.Masters, topo.Master{})
	}
	if cfg.WithDefaultMaster {
		t.Masters = append(t.Masters, topo.Master{Default: true})
	}
	for s := 0; s < cfg.NumSlaves; s++ {
		t.Slaves = append(t.Slaves, topo.Slave{
			Waits:   cfg.SlaveWaits,
			Regions: []topo.AddrRange{{Start: uint32(s) * rs, Size: rs}},
		})
	}
	return t.Canonical()
}

// System is a fully built simulation: kernel, bus, masters and slaves.
type System struct {
	// Topo is the canonical topology the system was built from; for
	// count-based construction it is SystemConfig.Topology().
	Topo    topo.Topology
	K       *sim.Kernel
	Bus     *ahb.Bus
	Masters []*ahb.Master // active masters only
	Default *ahb.Master   // the default master, if configured
	Slaves  []*ahb.MemorySlave
	Monitor *ahb.Monitor

	// runEndHooks run after every Run/RunContext returns, even on error,
	// so batching consumers (the analyzer's sample stream) are flushed
	// before anyone reads their downstream state.
	runEndHooks []func()

	// snapshotters is the registered extra-component state captured into
	// system snapshots (see snapshot.go).
	snapshotters []namedSnapshotter

	// Checkpoint hook: when set, RunContextStepped always takes the
	// chunked path and invokes ckptFn at settled chunk boundaries at
	// least ckptEvery cycles apart.
	ckptEvery uint64
	ckptFn    func(done uint64) error
}

// onRunEnd registers a hook invoked after every Run/RunContext returns.
func (s *System) onRunEnd(fn func()) {
	s.runEndHooks = append(s.runEndHooks, fn)
}

// NewSystem builds a system from the count-based configuration by
// canonicalizing it into a topology and building that: each slave owns a
// contiguous region of SlaveRegionSize bytes starting at slave*size, and
// the default master (when configured) sits on the last port. Prefer
// NewSystemTopo for anything the counts cannot express.
func NewSystem(cfg SystemConfig) (*System, error) {
	return NewSystemTopo(cfg.Topology())
}

// NewSystemTopo builds a system from a declarative topology. The
// topology is canonicalized and passed through the ERC compliance pass
// first; invalid topologies are rejected with a *topo.ValidationError
// carrying every rule violation, and a topology that validates cleanly
// is guaranteed to build. Masters are constructed in port order (actives
// first, then the default master), then slaves in port order — the
// process registration order the simulation schedule, and therefore
// byte-identical reproducibility, depends on.
func NewSystemTopo(t topo.Topology) (*System, error) {
	ct := t.Canonical()
	if err := topo.Check(ct); err != nil {
		return nil, err
	}
	policy, err := ct.ArbPolicy()
	if err != nil {
		return nil, err // unreachable: Check validated the policy
	}
	k := sim.NewKernel()
	bus, err := ahb.New(k, ahb.Config{
		NumMasters:    len(ct.Masters),
		NumSlaves:     len(ct.Slaves),
		Regions:       ct.Regions(),
		ClockPeriod:   ct.ClockPeriod(),
		DataWidth:     ct.DataWidth,
		Policy:        policy,
		DefaultMaster: ct.DefaultMasterIndex(),
	})
	if err != nil {
		return nil, err
	}
	sys := &System{
		Topo:    ct,
		K:       k,
		Bus:     bus,
		Monitor: ahb.NewMonitor(bus),
	}
	for i, m := range ct.Masters {
		if m.Default {
			continue
		}
		mm, err := ahb.NewMaster(bus, i)
		if err != nil {
			return nil, err
		}
		sys.Masters = append(sys.Masters, mm)
	}
	for i, m := range ct.Masters {
		if !m.Default {
			continue
		}
		dm, err := ahb.NewMaster(bus, i)
		if err != nil {
			return nil, err
		}
		sys.Default = dm // empty script: drives IDLE forever
	}
	for i, s := range ct.Slaves {
		sl, err := ahb.NewMemorySlave(bus, i, s.Waits)
		if err != nil {
			return nil, err
		}
		sys.Slaves = append(sys.Slaves, sl)
	}
	return sys, nil
}

// LoadPaperWorkload loads every active master with the paper's testbench
// traffic sized to roughly the requested total cycle count.
func (s *System) LoadPaperWorkload(targetCycles uint64) error {
	return s.enqueue(paperWorkloads(&s.Topo, targetCycles))
}

// LoadWorkload generates traffic from one configuration per active master
// (missing entries reuse the last configuration with a shifted seed).
func (s *System) LoadWorkload(cfgs ...workload.Config) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("core: no workload configurations")
	}
	return s.enqueue(perMaster(cfgs, len(s.Masters)))
}

// enqueue generates one script per active master from cfgs, which holds
// one configuration per master.
func (s *System) enqueue(cfgs []workload.Config) error {
	for m, mm := range s.Masters {
		seqs, err := workload.Generate(cfgs[m])
		if err != nil {
			return err
		}
		mm.Enqueue(seqs...)
	}
	return nil
}

// ResolveWorkloads is the traffic rule every execution path shares:
// explicit configurations win, then the topology's per-master workload
// hints, then the paper testbench sized to cycles. It returns one
// configuration per active master of t; missing explicit or hinted
// entries reuse the last one with a shifted seed, exactly like
// LoadWorkload, so every path drives identical traffic.
func ResolveWorkloads(t *topo.Topology, explicit []workload.Config, cycles uint64) ([]workload.Config, error) {
	src := explicit
	if len(src) == 0 {
		hints, err := t.Workloads()
		if err != nil {
			return nil, err
		}
		src = hints
	}
	if len(src) == 0 {
		return paperWorkloads(t, cycles), nil
	}
	return perMaster(src, t.ActiveMasters()), nil
}

// paperWorkloads sizes the paper testbench for t's active masters. Each
// sequence occupies ~50 transfer cycles plus tens of idle cycles; the
// sequence count keeps the masters busy for the whole run.
func paperWorkloads(t *topo.Topology, cycles uint64) []workload.Config {
	n := int(cycles)/100 + 2
	base, size := t.AddrSpan()
	out := make([]workload.Config, t.ActiveMasters())
	for m := range out {
		out[m] = workload.PaperTestbench(m, n)
		out[m].AddrBase, out[m].AddrSize = base, size
	}
	return out
}

// perMaster expands cfgs to n configurations: entry m is cfgs[m] when
// present, else the last configuration with its seed shifted by
// m*104729.
func perMaster(cfgs []workload.Config, n int) []workload.Config {
	out := make([]workload.Config, n)
	for m := range out {
		if m < len(cfgs) {
			out[m] = cfgs[m]
			continue
		}
		out[m] = cfgs[len(cfgs)-1]
		out[m].Seed += int64(m) * 104729
	}
	return out
}

// runChunk bounds how many bus cycles RunContext simulates between
// cancellation checks. Small enough that Ctrl-C feels immediate, large
// enough that the per-chunk overhead (one context check and one kernel
// re-entry) is unmeasurable.
const runChunk = 512

// Run advances the simulation by n bus clock cycles.
func (s *System) Run(n uint64) error {
	return s.RunContext(context.Background(), n)
}

// RunContext advances the simulation by n bus clock cycles, checking ctx
// between slices of cycles so that even a single long run can be
// cancelled mid-flight. A chunked run is event-for-event identical to a
// single Run call: the kernel resumes exactly where the previous slice
// settled and settled-timestep observers fire at most once per distinct
// simulated time. On cancellation the context's error is returned and
// the system stays resumable from the cycle it reached.
func (s *System) RunContext(ctx context.Context, n uint64) error {
	return s.RunContextStepped(ctx, n, func(c uint64) error {
		return s.K.RunCycles(s.Bus.Clk, c)
	})
}

// RunContextStepped is the execution seam RunContext is built on: it
// advances the simulation by n bus cycles using step to execute each slice
// of cycles, with the same chunking, cancellation and end-of-run hook
// semantics regardless of which execution backend supplies step. Backends
// (internal/exec) plug their cycle steppers in here, so observers flush
// and cancellation boundaries are identical across backends — a
// prerequisite for bit-identical partial results under mid-run
// cancellation.
func (s *System) RunContextStepped(ctx context.Context, n uint64, step func(uint64) error) error {
	defer func() {
		for _, fn := range s.runEndHooks {
			fn()
		}
	}()
	if (ctx == nil || ctx.Done() == nil) && s.ckptFn == nil {
		return step(n)
	}
	var done, sinceCkpt uint64
	for n > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		c := uint64(runChunk)
		if n < c {
			c = n
		}
		if err := step(c); err != nil {
			return err
		}
		n -= c
		done += c
		sinceCkpt += c
		// Checkpoint at the settled boundary; the final boundary is skipped
		// (the finished result supersedes any checkpoint).
		if s.ckptFn != nil && sinceCkpt >= s.ckptEvery && n > 0 {
			if err := s.ckptFn(done); err != nil {
				return err
			}
			sinceCkpt = 0
		}
	}
	return nil
}

// Tech is re-exported for convenience.
type Tech = power.Tech
