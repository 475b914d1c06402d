package sim

// Clock drives a boolean signal with a fixed period. The signal starts low
// at time zero and stays low for period/2, then high for the rest of the
// period, so rising edge i lands at period/2 + (i-1)*period for odd
// periods too, and combinational logic initialized at time zero has
// settled before the first active edge.
type Clock struct {
	sig    *Signal[bool]
	period Time
	cycles uint64
}

// NewClock creates a clock with the given period and starts it.
func NewClock(k *Kernel, name string, period Time) *Clock {
	if period < 2 {
		period = 2
	}
	c := &Clock{
		sig:    NewBool(k, name, false),
		period: period,
	}
	// The clock's level is derived state (cycle count + execution model),
	// not snapshot payload; see RestoreCycles.
	c.sig.snapSkip = true
	low, high := period/2, period-period/2
	var toggle func()
	toggle = func() {
		v := !c.sig.Read()
		c.sig.Write(v)
		next := low
		if v {
			c.cycles++
			next = high
		}
		k.Schedule(next, toggle)
	}
	k.Schedule(low, toggle)
	return c
}

// Signal returns the clock's boolean signal, for use in sensitivity lists.
func (c *Clock) Signal() *Signal[bool] { return c.sig }

// Period returns the clock period.
func (c *Clock) Period() Time { return c.period }

// FrequencyHz returns the clock frequency in hertz.
func (c *Clock) FrequencyHz() float64 {
	return 1.0 / c.period.Seconds()
}

// Cycles returns the number of rising edges produced so far.
func (c *Clock) Cycles() uint64 { return c.cycles }

// RestoreCycles sets the rising-edge count during snapshot restore. The
// signal itself is left at its constructed level: the event kernel's
// queued toggle (relocated by Kernel.RestoreTime) reproduces the right
// waveform, and a flat stepper pins the level itself.
func (c *Clock) RestoreCycles(n uint64) { c.cycles = n }

// Posedge returns a trigger for the clock's rising edge.
func (c *Clock) Posedge() Trigger { return Posedge(c.sig) }

// Negedge returns a trigger for the clock's falling edge.
func (c *Clock) Negedge() Trigger { return Negedge(c.sig) }
