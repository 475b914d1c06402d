package ahb

import (
	"fmt"

	"ahbpower/internal/probe"
	"ahbpower/internal/sim"
)

// Region maps an address range to a slave index.
type Region struct {
	Start uint32
	Size  uint32
	Slave int
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint32) bool {
	return addr >= r.Start && addr-r.Start < r.Size
}

// ArbPolicy selects the arbitration scheme.
type ArbPolicy uint8

// Arbitration policies.
const (
	// PolicySticky keeps the current master while it requests (so
	// sequences are non-interruptible, as in the paper's testbench), then
	// grants the highest-priority requester, else the default master.
	PolicySticky ArbPolicy = iota
	// PolicyFixed always grants the highest-priority (lowest index)
	// requester; it preempts ongoing bursts.
	PolicyFixed
	// PolicyRoundRobin rotates priority starting after the current owner.
	PolicyRoundRobin
)

// String names the policy.
func (p ArbPolicy) String() string {
	switch p {
	case PolicySticky:
		return "sticky"
	case PolicyFixed:
		return "fixed"
	case PolicyRoundRobin:
		return "rr"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy maps a policy name ("sticky", "fixed", "rr") to its value.
func ParsePolicy(s string) (ArbPolicy, error) {
	switch s {
	case "sticky":
		return PolicySticky, nil
	case "fixed":
		return PolicyFixed, nil
	case "rr":
		return PolicyRoundRobin, nil
	}
	return 0, fmt.Errorf("ahb: unknown arbitration policy %q", s)
}

// Config parameterizes a bus instance.
type Config struct {
	Name          string
	NumMasters    int
	NumSlaves     int
	Regions       []Region
	ClockPeriod   sim.Time
	DataWidth     int // 8, 16 or 32 bits
	DefaultMaster int // granted when nobody requests
	Policy        ArbPolicy
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.NumMasters < 1 || c.NumMasters > 16 {
		return fmt.Errorf("ahb: NumMasters=%d, want 1..16", c.NumMasters)
	}
	if c.NumSlaves < 1 || c.NumSlaves > 16 {
		return fmt.Errorf("ahb: NumSlaves=%d, want 1..16", c.NumSlaves)
	}
	if c.DataWidth != 8 && c.DataWidth != 16 && c.DataWidth != 32 {
		return fmt.Errorf("ahb: DataWidth=%d, want 8/16/32", c.DataWidth)
	}
	if c.DefaultMaster < 0 || c.DefaultMaster >= c.NumMasters {
		return fmt.Errorf("ahb: DefaultMaster=%d out of range", c.DefaultMaster)
	}
	if c.ClockPeriod <= 0 {
		return fmt.Errorf("ahb: ClockPeriod must be positive")
	}
	for i, r := range c.Regions {
		if r.Slave < 0 || r.Slave >= c.NumSlaves {
			return fmt.Errorf("ahb: region %d maps to slave %d, out of range", i, r.Slave)
		}
		if r.Size == 0 {
			return fmt.Errorf("ahb: region %d has zero size", i)
		}
		for j := 0; j < i; j++ {
			o := c.Regions[j]
			if r.Start < o.Start+o.Size && o.Start < r.Start+r.Size {
				return fmt.Errorf("ahb: regions %d and %d overlap", j, i)
			}
		}
	}
	return nil
}

// masterPorts bundles the output signals of one master.
type masterPorts struct {
	BusReq *sim.Signal[bool]
	Lock   *sim.Signal[bool]
	Trans  *sim.Signal[uint8]
	Addr   *sim.Signal[uint32]
	Write  *sim.Signal[bool]
	Size   *sim.Signal[uint8]
	Burst  *sim.Signal[uint8]
	Prot   *sim.Signal[uint8]
	Wdata  *sim.Signal[uint32]
}

// slavePorts bundles the output signals of one slave.
type slavePorts struct {
	ReadyOut *sim.Signal[bool]
	Resp     *sim.Signal[uint8]
	Rdata    *sim.Signal[uint32]
	SplitRes *sim.Signal[uint16] // split-resume mask (one bit per master)
}

// Bus is a complete AHB interconnect instance: arbiter, decoder, M2S and
// S2M multiplexers plus the signal fabric connecting masters and slaves.
type Bus struct {
	Cfg Config
	K   *sim.Kernel
	Clk *sim.Clock

	M []masterPorts
	S []slavePorts

	// Grant lines, one per master (registered, one-hot).
	Grant []*sim.Signal[bool]
	// GrantIdx mirrors the one-hot grant as an index.
	GrantIdx *sim.Signal[uint8]

	// Muxed address/control (M2S multiplexer output).
	HTrans *sim.Signal[uint8]
	HAddr  *sim.Signal[uint32]
	HWrite *sim.Signal[bool]
	HSize  *sim.Signal[uint8]
	HBurst *sim.Signal[uint8]
	HProt  *sim.Signal[uint8]
	HWdata *sim.Signal[uint32]

	// HMaster is the index of the master owning the address phase;
	// HMastlock is its lock status.
	HMaster   *sim.Signal[uint8]
	HMastlock *sim.Signal[bool]

	// Decoder outputs.
	Sel    []*sim.Signal[bool]
	SelIdx *sim.Signal[int] // selected slave index, -2 for default slave

	// Data-phase bookkeeping registers.
	DataMaster *sim.Signal[uint8] // owner of the data phase (selects HWDATA)
	DataSlave  *sim.Signal[int]   // slave in data phase, -1 none, -2 default

	// S2M multiplexer output.
	HRdata *sim.Signal[uint32]
	HResp  *sim.Signal[uint8]
	HReady *sim.Signal[bool]

	// Default-slave internal state (responds ERROR to unmapped accesses).
	defReady *sim.Signal[bool]
	defResp  *sim.Signal[uint8]

	// st is the bus's dynamic state outside the signals — the split mask,
	// cycle counter, handover latch and default-slave ERROR latch — and
	// exactly what its snapshot serializes.
	st BusState

	// combWaves holds the bus's combinational processes in topological
	// evaluation order (mux wave, then the decoder that reads the muxed
	// address), for straight-line execution by a flat stepper.
	combWaves [][]*sim.Process

	hub probe.Hub[CycleInfo]
}

// DataMask returns the valid-bit mask of the configured data width.
func (b *Bus) DataMask() uint32 {
	if b.Cfg.DataWidth >= 32 {
		return ^uint32(0)
	}
	return (uint32(1) << uint(b.Cfg.DataWidth)) - 1
}

// New creates a bus with the given configuration. Masters and slaves are
// attached afterwards with NewMaster / attach-slave helpers; unattached
// ports behave as permanently idle devices.
func New(k *sim.Kernel, cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "ahb"
	}
	b := &Bus{Cfg: cfg, K: k}
	n := cfg.Name
	b.Clk = sim.NewClock(k, n+".hclk", cfg.ClockPeriod)

	for m := 0; m < cfg.NumMasters; m++ {
		p := fmt.Sprintf("%s.m%d.", n, m)
		b.M = append(b.M, masterPorts{
			BusReq: sim.NewBool(k, p+"hbusreq", false),
			Lock:   sim.NewBool(k, p+"hlock", false),
			Trans:  sim.NewSignal[uint8](k, p+"htrans", TransIdle),
			Addr:   sim.NewSignal[uint32](k, p+"haddr", 0),
			Write:  sim.NewBool(k, p+"hwrite", false),
			Size:   sim.NewSignal[uint8](k, p+"hsize", Size32),
			Burst:  sim.NewSignal[uint8](k, p+"hburst", BurstSingle),
			Prot:   sim.NewSignal[uint8](k, p+"hprot", 0),
			Wdata:  sim.NewSignal[uint32](k, p+"hwdata", 0),
		})
		b.Grant = append(b.Grant, sim.NewBool(k, fmt.Sprintf("%s.hgrant%d", n, m), m == cfg.DefaultMaster))
	}
	for s := 0; s < cfg.NumSlaves; s++ {
		p := fmt.Sprintf("%s.s%d.", n, s)
		b.S = append(b.S, slavePorts{
			ReadyOut: sim.NewBool(k, p+"hreadyout", true),
			Resp:     sim.NewSignal[uint8](k, p+"hresp", RespOkay),
			Rdata:    sim.NewSignal[uint32](k, p+"hrdata", 0),
			SplitRes: sim.NewSignal[uint16](k, p+"hsplit", 0),
		})
		b.Sel = append(b.Sel, sim.NewBool(k, fmt.Sprintf("%s.hsel%d", n, s), false))
	}

	b.GrantIdx = sim.NewSignal[uint8](k, n+".grantidx", uint8(cfg.DefaultMaster))
	b.HTrans = sim.NewSignal[uint8](k, n+".htrans", TransIdle)
	b.HAddr = sim.NewSignal[uint32](k, n+".haddr", 0)
	b.HWrite = sim.NewBool(k, n+".hwrite", false)
	b.HSize = sim.NewSignal[uint8](k, n+".hsize", Size32)
	b.HBurst = sim.NewSignal[uint8](k, n+".hburst", BurstSingle)
	b.HProt = sim.NewSignal[uint8](k, n+".hprot", 0)
	b.HWdata = sim.NewSignal[uint32](k, n+".hwdata", 0)
	b.HMaster = sim.NewSignal[uint8](k, n+".hmaster", uint8(cfg.DefaultMaster))
	b.HMastlock = sim.NewBool(k, n+".hmastlock", false)
	b.SelIdx = sim.NewSignal[int](k, n+".selidx", -1)
	b.DataMaster = sim.NewSignal[uint8](k, n+".datamaster", uint8(cfg.DefaultMaster))
	b.DataSlave = sim.NewSignal[int](k, n+".dataslave", -1)
	b.HRdata = sim.NewSignal[uint32](k, n+".hrdata", 0)
	b.HResp = sim.NewSignal[uint8](k, n+".hresp", RespOkay)
	b.HReady = sim.NewBool(k, n+".hready", true)
	b.defReady = sim.NewBool(k, n+".defready", true)
	b.defResp = sim.NewSignal[uint8](k, n+".defresp", RespOkay)
	b.st.LastMaster = uint8(cfg.DefaultMaster)

	decoder := b.buildDecoder()
	m2sAddr, m2sWdata := b.buildM2S()
	s2m := b.buildS2M()
	b.buildArbiter()
	b.buildDefaultSlave()
	b.buildCycleProbe()
	// Topological order for flat execution: the muxes read only registered
	// (edge-written) signals, the decoder reads the muxed address/control.
	b.combWaves = [][]*sim.Process{{m2sAddr, m2sWdata, s2m}, {decoder}}
	return b, nil
}

// NewFlat returns a straight-line cycle stepper over the built bus: the
// compiled execution backend. It must be called after every master, slave
// and injector is attached (their processes join the posedge schedule) and
// before the simulation starts; the returned stepper then owns the kernel.
func (b *Bus) NewFlat() (*sim.Flat, error) {
	return sim.NewFlat(b.K, b.Clk, b.combWaves)
}

// buildDecoder creates the combinational address decoder: HSELx lines and
// the selected-slave index. Unmapped addresses select the internal default
// slave (-2).
func (b *Bus) buildDecoder() *sim.Process {
	sens := []sim.Trigger{b.HAddr.Changed(), b.HTrans.Changed()}
	return b.K.Method(b.Cfg.Name+".decoder", func() {
		addr := b.HAddr.Read()
		idx := -2
		for _, r := range b.Cfg.Regions {
			if r.Contains(addr) {
				idx = r.Slave
				break
			}
		}
		for s := range b.Sel {
			b.Sel[s].Write(idx == s)
		}
		b.SelIdx.Write(idx)
	}, sens...)
}

// buildM2S creates the masters-to-slaves multiplexer: address/control
// selected by HMASTER, write data selected by the data-phase owner.
func (b *Bus) buildM2S() (addrProc, wdataProc *sim.Process) {
	var sens []sim.Trigger
	for m := range b.M {
		p := &b.M[m]
		sens = append(sens, p.Trans.Changed(), p.Addr.Changed(), p.Write.Changed(),
			p.Size.Changed(), p.Burst.Changed(), p.Prot.Changed())
	}
	sens = append(sens, b.HMaster.Changed())
	addrProc = b.K.Method(b.Cfg.Name+".mux_m2s_addr", func() {
		m := int(b.HMaster.Read())
		if m >= len(b.M) {
			m = 0
		}
		p := &b.M[m]
		b.HTrans.Write(p.Trans.Read())
		b.HAddr.Write(p.Addr.Read())
		b.HWrite.Write(p.Write.Read())
		b.HSize.Write(p.Size.Read())
		b.HBurst.Write(p.Burst.Read())
		b.HProt.Write(p.Prot.Read())
	}, sens...)

	var dsens []sim.Trigger
	for m := range b.M {
		dsens = append(dsens, b.M[m].Wdata.Changed())
	}
	dsens = append(dsens, b.DataMaster.Changed())
	wdataProc = b.K.Method(b.Cfg.Name+".mux_m2s_wdata", func() {
		m := int(b.DataMaster.Read())
		if m >= len(b.M) {
			m = 0
		}
		b.HWdata.Write(b.M[m].Wdata.Read() & b.DataMask())
	}, dsens...)
	return addrProc, wdataProc
}

// buildS2M creates the slaves-to-masters multiplexer: read data, response
// and ready selected by the data-phase slave; idle bus reads ready/OKAY.
func (b *Bus) buildS2M() *sim.Process {
	var sens []sim.Trigger
	for s := range b.S {
		p := &b.S[s]
		sens = append(sens, p.ReadyOut.Changed(), p.Resp.Changed(), p.Rdata.Changed())
	}
	sens = append(sens, b.DataSlave.Changed(), b.defReady.Changed(), b.defResp.Changed())
	return b.K.Method(b.Cfg.Name+".mux_s2m", func() {
		ds := b.DataSlave.Read()
		switch {
		case ds >= 0 && ds < len(b.S):
			p := &b.S[ds]
			b.HRdata.Write(p.Rdata.Read() & b.DataMask())
			b.HResp.Write(p.Resp.Read())
			b.HReady.Write(p.ReadyOut.Read())
		case ds == -2:
			// Default slave: response lines only; the read-data bus parks
			// at its previous value (no driver turnaround churn).
			b.HResp.Write(b.defResp.Read())
			b.HReady.Write(b.defReady.Read())
		default:
			b.HResp.Write(RespOkay)
			b.HReady.Write(true)
		}
	}, sens...)
}

// buildArbiter creates the registered arbitration process: grants, the
// HMASTER address-phase owner and the data-phase bookkeeping registers all
// advance on clock edges where HREADY is high.
func (b *Bus) buildArbiter() {
	b.K.MethodNoInit(b.Cfg.Name+".arbiter", func() {
		if !b.HReady.Read() {
			return
		}
		cur := int(b.GrantIdx.Read())
		// Address-phase ownership follows the previous grant.
		b.HMaster.Write(uint8(cur))
		b.HMastlock.Write(b.M[cur].Lock.Read())
		// Data-phase registers follow the current address phase.
		b.DataMaster.Write(b.HMaster.Read())
		t := b.HTrans.Read()
		if t == TransNonseq || t == TransSeq {
			b.DataSlave.Write(b.SelIdx.Read())
		} else {
			b.DataSlave.Write(-1)
		}
		// Re-arbitrate.
		next := b.arbitrate(cur)
		if next != cur {
			for m := range b.Grant {
				b.Grant[m].Write(m == next)
			}
			b.GrantIdx.Write(uint8(next))
		}
	}, b.Clk.Posedge())
}

// arbitrate picks the next grant owner under the configured policy,
// honoring locks and split masking.
func (b *Bus) arbitrate(cur int) int {
	// A locked current master is never preempted.
	if b.M[cur].Lock.Read() && b.M[cur].BusReq.Read() {
		return cur
	}
	req := func(m int) bool {
		return b.M[m].BusReq.Read() && b.st.SplitMask&(1<<uint(m)) == 0
	}
	switch b.Cfg.Policy {
	case PolicySticky:
		if req(cur) {
			return cur
		}
		for m := 0; m < b.Cfg.NumMasters; m++ {
			if req(m) {
				return m
			}
		}
	case PolicyFixed:
		for m := 0; m < b.Cfg.NumMasters; m++ {
			if req(m) {
				return m
			}
		}
	case PolicyRoundRobin:
		for i := 1; i <= b.Cfg.NumMasters; i++ {
			m := (cur + i) % b.Cfg.NumMasters
			if req(m) {
				return m
			}
		}
	}
	return b.Cfg.DefaultMaster
}

// buildDefaultSlave installs the internal default slave: accesses to
// unmapped addresses receive a two-cycle ERROR response, as required by
// the AHB spec for non-IDLE transfers to undecoded space.
func (b *Bus) buildDefaultSlave() {
	b.K.MethodNoInit(b.Cfg.Name+".defslave", func() {
		if !b.HReady.Read() {
			if b.st.DefErrCycle {
				// Second cycle of the two-cycle ERROR.
				b.defReady.Write(true)
				b.st.DefErrCycle = false
			}
			return
		}
		t := b.HTrans.Read()
		if b.SelIdx.Read() == -2 && (t == TransNonseq || t == TransSeq) {
			b.defReady.Write(false)
			b.defResp.Write(RespError)
			b.st.DefErrCycle = true
		} else {
			b.defReady.Write(true)
			b.defResp.Write(RespOkay)
		}
	}, b.Clk.Posedge())
}

// SplitMask exposes the arbiter's split mask (for monitors and tests).
func (b *Bus) SplitMask() uint16 { return b.st.SplitMask }

// MaskSplit records that master m received a SPLIT and must not be granted
// until resumed. The fault injector calls it on the cycle it forces the
// SPLIT response.
func (b *Bus) MaskSplit(m uint8) {
	b.st.SplitMask |= 1 << uint(m)
}

// WatchSplitResume wires slave s's split-resume signal (HSPLITx) into the
// arbiter: any bit pulsed on SplitRes unmasks the corresponding master.
// The fault injector calls it once per slave it may split on; each call
// adds a watcher.
func (b *Bus) WatchSplitResume(s int) {
	b.S[s].SplitRes.Watch(func(_, now uint16) {
		b.st.SplitMask &^= now
	})
}
