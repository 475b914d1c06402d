package ahb

import (
	"fmt"

	"ahbpower/internal/probe"
	"ahbpower/internal/sim"
)

// CycleInfo is a settled snapshot of the bus at the end of one clock
// cycle. It is the observation record consumed by power analyzers (the
// "bus event" the paper's get_activity function reacts to) and by
// protocol-checking monitors.
type CycleInfo struct {
	Cycle uint64
	Time  sim.Time

	// Address/control phase (muxed M2S outputs).
	Trans  uint8
	Addr   uint32
	Write  bool
	Size   uint8
	Burst  uint8
	Wdata  uint32
	Master uint8 // address-phase owner
	Lock   bool

	// Decode.
	SelIdx int // selected slave, -2 default slave, valid when Trans active

	// Data phase / response (muxed S2M outputs).
	Rdata      uint32
	Resp       uint8
	Ready      bool
	DataMaster uint8
	DataSlave  int

	// Arbitration.
	GrantIdx uint8
	Requests uint16 // bitmask of asserted HBUSREQx
	Handover bool   // HMASTER changed relative to the previous cycle
}

// buildCycleProbe registers the bus on the kernel's settled-timestep
// stream; the bus snapshots itself once per clock cycle (on the settled
// high phase of HCLK) and publishes the record through its hub.
func (b *Bus) buildCycleProbe() {
	b.K.Observe(b)
}

// EndOfTimestep implements sim.CycleObserver: on the settled high phase of
// HCLK it samples every shared bus signal into one CycleInfo record and
// publishes it to the attached observers.
func (b *Bus) EndOfTimestep(t sim.Time) {
	if !b.Clk.Signal().Read() {
		return
	}
	b.st.Cycles++
	ci := CycleInfo{
		Cycle:      b.st.Cycles,
		Time:       t,
		Trans:      b.HTrans.Read(),
		Addr:       b.HAddr.Read(),
		Write:      b.HWrite.Read(),
		Size:       b.HSize.Read(),
		Burst:      b.HBurst.Read(),
		Wdata:      b.HWdata.Read(),
		Master:     b.HMaster.Read(),
		Lock:       b.HMastlock.Read(),
		SelIdx:     b.SelIdx.Read(),
		Rdata:      b.HRdata.Read(),
		Resp:       b.HResp.Read(),
		Ready:      b.HReady.Read(),
		DataMaster: b.DataMaster.Read(),
		DataSlave:  b.DataSlave.Read(),
		GrantIdx:   b.GrantIdx.Read(),
	}
	for m := range b.M {
		if b.M[m].BusReq.Read() {
			ci.Requests |= 1 << uint(m)
		}
	}
	ci.Handover = ci.Master != b.st.LastMaster
	b.st.LastMaster = ci.Master
	b.hub.Publish(ci)
}

// Observe attaches a typed observer to the settled bus-cycle stream.
func (b *Bus) Observe(o probe.Observer[CycleInfo]) {
	b.hub.Attach(o)
}

// OnCycle registers a plain function invoked with every settled bus cycle;
// it is the convenience form of Observe.
func (b *Bus) OnCycle(fn func(CycleInfo)) {
	b.hub.AttachFunc(fn)
}

// Cycles returns the number of observed bus cycles.
func (b *Bus) Cycles() uint64 { return b.st.Cycles }

// ProtocolError describes a violation detected by the Monitor.
type ProtocolError struct {
	Cycle uint64
	Rule  string
	Desc  string
}

func (e ProtocolError) Error() string {
	return fmt.Sprintf("cycle %d: %s: %s", e.Cycle, e.Rule, e.Desc)
}

// Monitor performs on-line AHB protocol checking over the cycle stream —
// the "complete set of testbenches to observe all the different activity
// states" needs a referee. Violations are collected, not fatal.
type Monitor struct {
	// st is the monitor's whole state, as its snapshot serializes it.
	st MonitorState
}

// NewMonitor attaches a protocol monitor to the bus-cycle stream.
func NewMonitor(b *Bus) *Monitor {
	m := &Monitor{}
	b.Observe(m)
	return m
}

// NewDetachedMonitor creates a protocol monitor that is not subscribed to
// any bus: the caller feeds it CycleInfo records directly via
// ObserveCycle. The checking rules only look at the cycle stream, so a
// detached monitor is interchangeable with an attached one — the lane
// backend uses this to referee each lane's reconstructed cycle stream.
func NewDetachedMonitor() *Monitor {
	return &Monitor{}
}

// Errors returns the violations detected so far.
func (m *Monitor) Errors() []ProtocolError { return m.st.Errs }

// Counts returns per-event counters (transfers, waits, handovers, ...).
// Only events observed at least once appear, matching map-increment
// semantics.
func (m *Monitor) Counts() map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"idle", m.st.Counts.Idle},
		{"busy", m.st.Counts.Busy},
		{"nonseq", m.st.Counts.Nonseq},
		{"seq", m.st.Counts.Seq},
		{"handover", m.st.Counts.Handover},
		{"wait", m.st.Counts.Wait},
	} {
		if c.n > 0 {
			out[c.name] = c.n
		}
	}
	return out
}

func (m *Monitor) fail(c uint64, rule, format string, args ...any) {
	m.st.Errs = append(m.st.Errs, ProtocolError{Cycle: c, Rule: rule, Desc: fmt.Sprintf(format, args...)})
}

// ObserveCycle implements probe.Observer: it checks one settled bus cycle
// against the protocol rules.
func (m *Monitor) ObserveCycle(ci CycleInfo) {
	switch ci.Trans {
	case TransIdle:
		m.st.Counts.Idle++
	case TransBusy:
		m.st.Counts.Busy++
	case TransNonseq:
		m.st.Counts.Nonseq++
	case TransSeq:
		m.st.Counts.Seq++
	}
	if ci.Handover {
		m.st.Counts.Handover++
	}
	if !ci.Ready {
		m.st.Counts.Wait++
	}

	// Alignment rule: active transfers must be size-aligned.
	if ci.Trans == TransNonseq || ci.Trans == TransSeq {
		if !Aligned(ci.Addr, ci.Size) {
			m.fail(ci.Cycle, "alignment", "HADDR %#x not aligned to HSIZE %d", ci.Addr, ci.Size)
		}
	}

	if !m.st.HavePrev {
		m.st.Prev, m.st.HavePrev = ci, true
		return
	}
	p := &m.st.Prev

	// A response other than OKAY must be a two-cycle response: first
	// cycle with HREADY low.
	if ci.Resp != RespOkay && ci.Ready {
		if p.Resp != ci.Resp || p.Ready {
			m.fail(ci.Cycle, "two-cycle-response", "%s completed without a first low-HREADY cycle", RespName(ci.Resp))
		}
	}

	// During wait states the address phase must be frozen.
	if !p.Ready && p.Resp == RespOkay {
		if ci.Trans != p.Trans || (p.Trans != TransIdle && ci.Addr != p.Addr) {
			m.fail(ci.Cycle, "frozen-address", "address phase changed during wait state (%s %#x -> %s %#x)",
				TransName(p.Trans), p.Addr, TransName(ci.Trans), ci.Addr)
		}
	}

	// SEQ transfers continue a burst: same direction, address advanced by
	// the burst rule from the previous active beat.
	if ci.Trans == TransSeq && p.Ready {
		if p.Trans == TransNonseq || p.Trans == TransSeq {
			want := NextBurstAddr(p.Addr, p.Burst, p.Size)
			if ci.Addr != want {
				m.fail(ci.Cycle, "burst-address", "SEQ HADDR %#x, want %#x after %s", ci.Addr, want, BurstName(p.Burst))
			}
			if ci.Write != p.Write {
				m.fail(ci.Cycle, "burst-direction", "HWRITE changed mid-burst")
			}
		} else if p.Trans != TransBusy {
			m.fail(ci.Cycle, "seq-after-idle", "SEQ after %s", TransName(p.Trans))
		}
	}

	// BUSY is only legal inside a burst.
	if ci.Trans == TransBusy && p.Ready {
		if p.Trans != TransNonseq && p.Trans != TransSeq && p.Trans != TransBusy {
			m.fail(ci.Cycle, "busy-outside-burst", "BUSY after %s", TransName(p.Trans))
		}
	}

	// Bursts must not cross a 1 KB boundary: a SEQ beat must stay in the
	// 1 KB block of the burst's first (NONSEQ) beat.
	if ci.Trans == TransNonseq {
		m.st.BurstBase = ci.Addr
	}
	if ci.Trans == TransSeq && ci.Addr>>10 != m.st.BurstBase>>10 {
		m.fail(ci.Cycle, "kb-boundary", "burst from %#x reached %#x across a 1KB boundary", m.st.BurstBase, ci.Addr)
	}

	// Ownership handover requires HREADY high in the previous cycle.
	if ci.Handover && !p.Ready {
		m.fail(ci.Cycle, "handover-wait", "HMASTER changed while HREADY low")
	}
	m.st.Prev = ci
}
