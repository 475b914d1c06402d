package ahb

import "fmt"

// MemorySlave is a word-addressable memory responding OKAY with a
// configurable number of wait states per transfer. Fault plans
// (internal/fault) force ERROR, RETRY and SPLIT responses onto it.
type MemorySlave struct {
	bus   *Bus
	idx   int
	ports *slavePorts

	Waits int // wait states per data phase

	mem      map[uint32]uint32
	pending  *LatchedState // &latch while a data phase is open, else nil
	latch    LatchedState
	waitLeft int

	stats SlaveStats
}

// SlaveStats counts slave-side events.
type SlaveStats struct {
	Reads  uint64
	Writes uint64
	Waits  uint64
}

// NewMemorySlave attaches a memory slave to bus port idx.
func NewMemorySlave(b *Bus, idx, waitStates int) (*MemorySlave, error) {
	if idx < 0 || idx >= b.Cfg.NumSlaves {
		return nil, fmt.Errorf("ahb: slave index %d out of range", idx)
	}
	if waitStates < 0 {
		return nil, fmt.Errorf("ahb: negative wait states")
	}
	s := &MemorySlave{bus: b, idx: idx, ports: &b.S[idx], Waits: waitStates, mem: map[uint32]uint32{}}
	b.K.MethodNoInit(fmt.Sprintf("%s.memslave%d", b.Cfg.Name, idx), s.tick, b.Clk.Posedge())
	return s, nil
}

// Poke writes directly into the backing memory (for test setup).
func (s *MemorySlave) Poke(addr, val uint32) { s.mem[addr>>2] = val }

// Peek reads directly from the backing memory.
func (s *MemorySlave) Peek(addr uint32) uint32 { return s.mem[addr>>2] }

// Stats returns the slave's counters.
func (s *MemorySlave) Stats() SlaveStats { return s.stats }

func (s *MemorySlave) tick() {
	hready := s.bus.HReady.Read()

	// Progress an ongoing data phase. It completes at the first edge that
	// samples HREADY high, whoever drove it high: the slave once its wait
	// states are counted, or a fault injector ending a forced two-cycle
	// response. While HREADY is low the slave re-drives ReadyOut, so an
	// injected wait stretch that outlasts the slave's own count ends on
	// the slave's ready.
	if s.pending != nil {
		if !hready {
			if s.waitLeft > 0 {
				s.waitLeft--
				s.stats.Waits++
			}
			if s.waitLeft == 0 {
				// The final data cycle begins now; completion happens at
				// the next edge once HREADY has been seen high.
				s.finishPhase()
			} else {
				s.ports.ReadyOut.Write(false)
			}
			return
		}
		// Data phase completed at this edge.
		if s.pending.Write {
			s.mem[s.pending.Addr>>2] = s.bus.HWdata.Read()
			s.stats.Writes++
		} else {
			s.stats.Reads++
		}
		s.pending = nil
		s.waitLeft = 0
	}

	if !hready {
		return
	}

	// Latch a new address phase if selected with an active transfer.
	t := s.bus.HTrans.Read()
	if s.bus.Sel[s.idx].Read() && (t == TransNonseq || t == TransSeq) {
		s.latch = LatchedState{
			Addr:  s.bus.HAddr.Read(),
			Write: s.bus.HWrite.Read(),
			Size:  s.bus.HSize.Read(),
		}
		s.pending = &s.latch
		s.ports.Resp.Write(RespOkay)
		if s.Waits > 0 {
			s.waitLeft = s.Waits
			s.ports.ReadyOut.Write(false)
		} else {
			s.finishPhase()
		}
	} else {
		s.ports.ReadyOut.Write(true)
		s.ports.Resp.Write(RespOkay)
	}
}

// finishPhase drives the final data cycle: ready high plus read data.
func (s *MemorySlave) finishPhase() {
	s.ports.ReadyOut.Write(true)
	if !s.pending.Write {
		s.ports.Rdata.Write(s.mem[s.pending.Addr>>2])
	}
}
