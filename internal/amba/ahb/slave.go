package ahb

import "fmt"

// MemorySlave is a word-addressable memory responding OKAY with a
// configurable number of wait states per transfer.
type MemorySlave struct {
	bus   *Bus
	idx   int
	ports *slavePorts

	Waits int // wait states per data phase

	mem      map[uint32]uint32
	pending  *LatchedState
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

	// Progress an ongoing data phase.
	if s.pending != nil {
		if s.waitLeft > 0 {
			s.waitLeft--
			s.stats.Waits++
			if s.waitLeft == 0 {
				// The final data cycle begins now; completion happens at
				// the next edge once HREADY has been seen high.
				s.finishPhase()
			}
			return
		}
		if hready {
			// Data phase completed at this edge.
			if s.pending.Write {
				s.mem[s.pending.Addr>>2] = s.bus.HWdata.Read()
				s.stats.Writes++
			} else {
				s.stats.Reads++
			}
			s.pending = nil
		}
	}

	if !hready {
		return
	}

	// Latch a new address phase if selected with an active transfer.
	t := s.bus.HTrans.Read()
	if s.bus.Sel[s.idx].Read() && (t == TransNonseq || t == TransSeq) {
		s.pending = &LatchedState{
			Addr:  s.bus.HAddr.Read(),
			Write: s.bus.HWrite.Read(),
			Size:  s.bus.HSize.Read(),
		}
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

// ErrorSlave responds with a two-cycle ERROR to every active transfer —
// useful for exercising master error paths.
type ErrorSlave struct {
	bus      *Bus
	idx      int
	ports    *slavePorts
	errCycle bool
	Errors   uint64
}

// NewErrorSlave attaches an always-erroring slave to bus port idx.
func NewErrorSlave(b *Bus, idx int) (*ErrorSlave, error) {
	if idx < 0 || idx >= b.Cfg.NumSlaves {
		return nil, fmt.Errorf("ahb: slave index %d out of range", idx)
	}
	s := &ErrorSlave{bus: b, idx: idx, ports: &b.S[idx]}
	b.K.MethodNoInit(fmt.Sprintf("%s.errslave%d", b.Cfg.Name, idx), s.tick, b.Clk.Posedge())
	return s, nil
}

func (s *ErrorSlave) tick() {
	if !s.bus.HReady.Read() {
		if s.errCycle {
			s.ports.ReadyOut.Write(true) // second ERROR cycle
			s.errCycle = false
		}
		return
	}
	t := s.bus.HTrans.Read()
	if s.bus.Sel[s.idx].Read() && (t == TransNonseq || t == TransSeq) {
		s.Errors++
		s.ports.ReadyOut.Write(false)
		s.ports.Resp.Write(RespError)
		s.errCycle = true
	} else {
		s.ports.ReadyOut.Write(true)
		s.ports.Resp.Write(RespOkay)
	}
}

// RetrySlave issues a configurable number of RETRY responses to each
// transfer before completing it OKAY against a backing memory.
type RetrySlave struct {
	bus     *Bus
	idx     int
	ports   *slavePorts
	Retries int // RETRYs issued per transfer before acceptance

	mem      map[uint32]uint32
	pending  *LatchedState
	tryCount int
	twoCycle bool
	Issued   uint64
}

// NewRetrySlave attaches a retry-then-accept slave to bus port idx.
func NewRetrySlave(b *Bus, idx, retries int) (*RetrySlave, error) {
	if idx < 0 || idx >= b.Cfg.NumSlaves {
		return nil, fmt.Errorf("ahb: slave index %d out of range", idx)
	}
	s := &RetrySlave{bus: b, idx: idx, ports: &b.S[idx], Retries: retries, mem: map[uint32]uint32{}}
	b.K.MethodNoInit(fmt.Sprintf("%s.retryslave%d", b.Cfg.Name, idx), s.tick, b.Clk.Posedge())
	return s, nil
}

// Peek reads directly from the backing memory.
func (s *RetrySlave) Peek(addr uint32) uint32 { return s.mem[addr>>2] }

func (s *RetrySlave) tick() {
	if !s.bus.HReady.Read() {
		if s.twoCycle {
			s.ports.ReadyOut.Write(true) // second RETRY cycle
			s.twoCycle = false
		}
		return
	}
	// Complete an accepted data phase.
	if s.pending != nil && s.ports.Resp.Read() == RespOkay {
		if s.pending.Write {
			s.mem[s.pending.Addr>>2] = s.bus.HWdata.Read()
		}
		s.pending = nil
	}
	t := s.bus.HTrans.Read()
	if s.bus.Sel[s.idx].Read() && (t == TransNonseq || t == TransSeq) {
		if s.tryCount < s.Retries {
			s.tryCount++
			s.Issued++
			s.ports.ReadyOut.Write(false)
			s.ports.Resp.Write(RespRetry)
			s.twoCycle = true
			return
		}
		s.tryCount = 0
		s.pending = &LatchedState{
			Addr:  s.bus.HAddr.Read(),
			Write: s.bus.HWrite.Read(),
		}
		s.ports.ReadyOut.Write(true)
		s.ports.Resp.Write(RespOkay)
		if !s.pending.Write {
			s.ports.Rdata.Write(s.mem[s.pending.Addr>>2])
		}
	} else {
		s.ports.ReadyOut.Write(true)
		s.ports.Resp.Write(RespOkay)
	}
}

// SplitSlave SPLITs the first attempt of each transfer, releases the
// master after HoldCycles, then completes the re-attempted transfer OKAY.
type SplitSlave struct {
	bus        *Bus
	idx        int
	ports      *slavePorts
	HoldCycles int

	mem      map[uint32]uint32
	pending  *LatchedState
	twoCycle bool
	holding  int // countdown to split resume
	heldMask uint16
	primed   bool // next matching attempt completes
	Splits   uint64
}

// NewSplitSlave attaches a split-capable slave to bus port idx.
func NewSplitSlave(b *Bus, idx, holdCycles int) (*SplitSlave, error) {
	if idx < 0 || idx >= b.Cfg.NumSlaves {
		return nil, fmt.Errorf("ahb: slave index %d out of range", idx)
	}
	if holdCycles < 1 {
		holdCycles = 1
	}
	s := &SplitSlave{bus: b, idx: idx, ports: &b.S[idx], HoldCycles: holdCycles, mem: map[uint32]uint32{}}
	b.WatchSplitResume(idx)
	b.K.MethodNoInit(fmt.Sprintf("%s.splitslave%d", b.Cfg.Name, idx), s.tick, b.Clk.Posedge())
	return s, nil
}

// Peek reads directly from the backing memory.
func (s *SplitSlave) Peek(addr uint32) uint32 { return s.mem[addr>>2] }

func (s *SplitSlave) tick() {
	// Count down the split hold and raise the resume mask.
	if s.holding > 0 {
		s.holding--
		if s.holding == 0 {
			s.ports.SplitRes.Write(s.heldMask)
			s.primed = true
		}
	} else if s.ports.SplitRes.Read() != 0 {
		s.ports.SplitRes.Write(0)
	}

	if !s.bus.HReady.Read() {
		if s.twoCycle {
			s.ports.ReadyOut.Write(true) // second SPLIT cycle
			s.twoCycle = false
		}
		return
	}
	if s.pending != nil && s.ports.Resp.Read() == RespOkay {
		if s.pending.Write {
			s.mem[s.pending.Addr>>2] = s.bus.HWdata.Read()
		}
		s.pending = nil
	}
	t := s.bus.HTrans.Read()
	if s.bus.Sel[s.idx].Read() && (t == TransNonseq || t == TransSeq) {
		if !s.primed {
			s.Splits++
			s.ports.ReadyOut.Write(false)
			s.ports.Resp.Write(RespSplit)
			s.twoCycle = true
			s.holding = s.HoldCycles
			// The transfer being split is the one entering its data
			// phase now: the address-phase master of the sampled cycle.
			m := s.bus.HMaster.Read()
			s.heldMask = 1 << uint(m)
			s.bus.MaskSplit(m)
			return
		}
		s.primed = false
		s.pending = &LatchedState{
			Addr:  s.bus.HAddr.Read(),
			Write: s.bus.HWrite.Read(),
		}
		s.ports.ReadyOut.Write(true)
		s.ports.Resp.Write(RespOkay)
		if !s.pending.Write {
			s.ports.Rdata.Write(s.mem[s.pending.Addr>>2])
		}
	} else {
		s.ports.ReadyOut.Write(true)
		s.ports.Resp.Write(RespOkay)
	}
}
