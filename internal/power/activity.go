package power

// Signal indexes the bus signals the Activity store counts.
type Signal uint8

// The instrumented bus signals, in name order so a report needs no sort.
const (
	SignalHADDR Signal = iota
	SignalHBUSREQ
	SignalHGRANT
	SignalHMASTER
	SignalHRDATA
	SignalHSEL
	SignalHTRANS
	SignalHWDATA
	NumSignals
)

var signalNames = [NumSignals]string{"HADDR", "HBUSREQ", "HGRANT", "HMASTER", "HRDATA", "HSEL", "HTRANS", "HWDATA"}

// Activity is the instrumentation object the paper adds during the
// "preliminary instrumentation" phase (bit_change_count /
// store_activity): switching counters for every bus signal of the
// Signal table. The analyzer feeds it the Hamming distances its
// macromodels already take, so the store holds no copy of any signal;
// its fields are also its checkpoint form.
type Activity struct {
	// Samples counts the observed bus cycles.
	Samples uint64 `json:"samples"`
	// BitChanges accumulates each signal's Hamming distance between
	// consecutive samples; the first sample adds none.
	BitChanges [NumSignals]uint64 `json:"bit_changes"`
}

func signalNamed(name string) (Signal, bool) {
	for s, n := range signalNames {
		if n == name {
			return Signal(s), true
		}
	}
	return 0, false
}

// BitChangeCount returns the accumulated bit changes of a signal, 0 for
// a name outside the Signal table.
func (a *Activity) BitChangeCount(name string) uint64 {
	if s, ok := signalNamed(name); ok {
		return a.BitChanges[s]
	}
	return 0
}

// SwitchingActivity returns the mean bit changes of a signal per
// observed transition, 0 for a name outside the Signal table.
func (a *Activity) SwitchingActivity(name string) float64 {
	if s, ok := signalNamed(name); ok {
		return a.switching(s)
	}
	return 0
}

func (a *Activity) switching(s Signal) float64 {
	if a.Samples < 2 {
		return 0
	}
	return float64(a.BitChanges[s]) / float64(a.Samples-1)
}

// Report returns one line per signal, sorted by name: samples, total bit
// changes and mean switching activity.
func (a *Activity) Report() []ActivityLine {
	lines := make([]ActivityLine, NumSignals)
	for s := range lines {
		lines[s] = ActivityLine{
			Signal:     signalNames[s],
			Samples:    a.Samples,
			BitChanges: a.BitChanges[s],
			Activity:   a.switching(Signal(s)),
		}
	}
	return lines
}

// ActivityLine is one row of an Activity report.
type ActivityLine struct {
	Signal     string
	Samples    uint64
	BitChanges uint64
	Activity   float64
}
