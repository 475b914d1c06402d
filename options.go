package ahbpower

import (
	"ahbpower/internal/core"
)

// AttachOption customizes the power analyzer built by Attach. Options
// are applied in order over a zero AnalyzerConfig, so later options win.
type AttachOption func(*AnalyzerConfig)

// WithStyle selects the power-model integration style (paper Fig. 1).
// The default is StyleGlobal.
func WithStyle(s Style) AttachOption {
	return func(cfg *AnalyzerConfig) { cfg.Style = s }
}

// WithTech supplies the technology constants of the energy models
// instead of DefaultTech.
func WithTech(t Tech) AttachOption {
	return func(cfg *AnalyzerConfig) { cfg.Tech = t }
}

// WithModels supplies characterized macromodels (from Characterize or
// LoadModels) instead of the structural defaults — the IP-reuse flow of
// the paper's §2.
func WithModels(m *Models) AttachOption {
	return func(cfg *AnalyzerConfig) { cfg.Models = m }
}

// WithTrace subscribes a streaming power-trace recorder (see NewTrace)
// to the analyzer's per-cycle sample stream; its windowed power series
// are the paper's Figs. 3-5. Use one Trace per run.
func WithTrace(rec *Trace) AttachOption {
	return func(cfg *AnalyzerConfig) { cfg.Trace = rec }
}

// WithActivity keeps per-signal bit-change counters (the paper's
// Activity object) at the cost of a few integer additions per cycle.
func WithActivity() AttachOption {
	return func(cfg *AnalyzerConfig) { cfg.RecordActivity = true }
}

// WithDPM enables the dynamic-power-management savings estimator.
func WithDPM(dpm DPMConfig) AttachOption {
	return func(cfg *AnalyzerConfig) { cfg.DPM = &dpm }
}

// Attach hooks a power analyzer into a system; call before Run. With no
// options it attaches a global-style analyzer with default technology:
//
//	an, err := ahbpower.Attach(sys,
//	    ahbpower.WithStyle(ahbpower.StylePrivate),
//	    ahbpower.WithTrace(rec))
func Attach(sys *System, opts ...AttachOption) (*Analyzer, error) {
	var cfg AnalyzerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.Attach(sys, cfg)
}

// AttachConfig hooks a power analyzer into a system from an explicit
// configuration struct; it is the non-options form of Attach.
func AttachConfig(sys *System, cfg AnalyzerConfig) (*Analyzer, error) {
	return core.Attach(sys, cfg)
}
