package ahbpower

import (
	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/amba/apb"
	"ahbpower/internal/amba/asb"
	"ahbpower/internal/sim"
)

// Low-level AMBA building blocks, for systems that need more than the
// canned core.System topology: raw bus construction, extra slave types,
// the APB tier and the protocol monitor.
type (
	// Kernel is the discrete-event simulation kernel.
	Kernel = sim.Kernel
	// Clock is a free-running simulation clock.
	Clock = sim.Clock
	// MemorySlave is a word-addressable AHB memory slave.
	MemorySlave = ahb.MemorySlave
	// Monitor performs on-line AHB protocol checking.
	Monitor = ahb.Monitor
	// CycleInfo is a settled per-cycle bus snapshot.
	CycleInfo = ahb.CycleInfo

	// APBConfig configures an APB segment.
	APBConfig = apb.Config
	// APBRegion maps an APB address range to a peripheral.
	APBRegion = apb.Region
	// APBBus is the APB signal fabric.
	APBBus = apb.Bus
	// Bridge converts AHB transfers into APB accesses.
	Bridge = apb.Bridge
	// RegisterBlock is an APB register-bank peripheral.
	RegisterBlock = apb.RegisterBlock
	// Timer is an APB free-running counter peripheral.
	Timer = apb.Timer
	// FifoSlave is an AHB stream peripheral with backpressure.
	FifoSlave = ahb.FifoSlave

	// ASBConfig configures an ASB (the older AMBA system bus) instance.
	ASBConfig = asb.Config
	// ASBBus is the ASB interconnect with its shared tri-state data bus.
	ASBBus = asb.Bus
	// ASBMaster is a script-driven ASB master.
	ASBMaster = asb.Master
	// ASBMemorySlave is a word-addressable ASB memory slave.
	ASBMemorySlave = asb.MemorySlave
	// ASBRegion maps an ASB address range to a slave.
	ASBRegion = asb.Region
	// ASBSequence is a run of ASB operations with the request held.
	ASBSequence = asb.Sequence
	// ASBOp is one ASB operation.
	ASBOp = asb.Op
)

// AHB transfer constants re-exported for script construction.
const (
	OpWrite = ahb.OpWrite
	OpRead  = ahb.OpRead
	OpIdle  = ahb.OpIdle

	BurstSingle = ahb.BurstSingle
	BurstIncr   = ahb.BurstIncr
	BurstIncr4  = ahb.BurstIncr4
	BurstWrap4  = ahb.BurstWrap4
	BurstIncr8  = ahb.BurstIncr8
	BurstWrap8  = ahb.BurstWrap8
	BurstIncr16 = ahb.BurstIncr16
	BurstWrap16 = ahb.BurstWrap16

	RespOkay  = ahb.RespOkay
	RespError = ahb.RespError
	RespRetry = ahb.RespRetry
	RespSplit = ahb.RespSplit

	PolicySticky     = ahb.PolicySticky
	PolicyFixed      = ahb.PolicyFixed
	PolicyRoundRobin = ahb.PolicyRoundRobin

	ASBOpWrite = asb.OpWrite
	ASBOpRead  = asb.OpRead
)

// NewKernel creates a fresh simulation kernel.
func NewKernel() *Kernel { return sim.NewKernel() }

// NewBus creates a raw AHB bus on a kernel.
func NewBus(k *Kernel, cfg BusConfig) (*Bus, error) { return ahb.New(k, cfg) }

// NewMaster attaches a script-driven master to a bus port.
func NewMaster(b *Bus, idx int) (*Master, error) { return ahb.NewMaster(b, idx) }

// NewMemorySlave attaches a memory slave with the given wait states.
func NewMemorySlave(b *Bus, idx, waits int) (*MemorySlave, error) {
	return ahb.NewMemorySlave(b, idx, waits)
}

// NewMonitor attaches an AHB protocol monitor.
func NewMonitor(b *Bus) *Monitor { return ahb.NewMonitor(b) }

// NewAPBBus creates an APB signal fabric.
func NewAPBBus(k *Kernel, cfg APBConfig) (*APBBus, error) { return apb.NewBus(k, cfg) }

// NewBridge attaches an AHB-to-APB bridge on an AHB slave port.
func NewBridge(ahbBus *Bus, idx int, apbBus *APBBus) (*Bridge, error) {
	return apb.NewBridge(ahbBus, idx, apbBus)
}

// NewRegisterBlock attaches an APB register bank.
func NewRegisterBlock(b *APBBus, sel int, base uint32, n int) (*RegisterBlock, error) {
	return apb.NewRegisterBlock(b, sel, base, n)
}

// NewTimer attaches an APB timer peripheral.
func NewTimer(b *APBBus, sel int, base uint32, clk *Clock) (*Timer, error) {
	return apb.NewTimer(b, sel, base, clk)
}

// NewFifoSlave attaches a stream FIFO slave to an AHB port.
func NewFifoSlave(b *Bus, idx, capacity, drainEvery int) (*FifoSlave, error) {
	return ahb.NewFifoSlave(b, idx, capacity, drainEvery)
}

// NewASBBus creates an ASB interconnect.
func NewASBBus(k *Kernel, cfg ASBConfig) (*ASBBus, error) { return asb.New(k, cfg) }

// NewASBMaster attaches a master to an ASB port.
func NewASBMaster(b *ASBBus, idx int) (*ASBMaster, error) { return asb.NewMaster(b, idx) }

// NewASBMemorySlave attaches a memory slave to an ASB port.
func NewASBMemorySlave(b *ASBBus, idx, waits int) (*ASBMemorySlave, error) {
	return asb.NewMemorySlave(b, idx, waits)
}
