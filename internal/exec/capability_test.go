package exec

import (
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/metrics"
)

// TestCapabilityTable pins one golden row per (feature, path): the exact
// reason a feature surfaces when it rules a path out, or "" when the path
// honours it.
func TestCapabilityTable(t *testing.T) {
	const (
		setup   = "custom Setup hook"
		timeout = "per-scenario timeout"
		active  = "active fault-injection plan"
		noAn    = "no analyzer attached, nothing to estimate"
		dpm     = "DPM estimator attached"
		private = "delta-level (private-style) instrumentation"
		rec     = "streaming trace recorder attached"
		ckpt    = "checkpointing requested"
	)
	paths := []Path{PathCompiled, PathLanes, PathTLM, PathCheckpoint}
	golden := []struct {
		f    Feature
		want [4]string // compiled, lanes, TLM, checkpoint
	}{
		{FeatureSetup, [4]string{setup, setup, setup, setup}},
		{FeatureTimeout, [4]string{"", timeout, "", ""}},
		{FeatureActiveFaults, [4]string{"", active, active, ""}},
		{FeatureNoAnalyzer, [4]string{"", "", noAn, ""}},
		{FeatureDPM, [4]string{"", dpm, dpm, ""}},
		{FeaturePrivateStyle, [4]string{private, private, "", ""}},
		{FeatureTraceRecorder, [4]string{"", rec, rec, rec}},
		{FeatureCheckpoint, [4]string{"", ckpt, ckpt, ""}},
	}
	if len(golden) != len(capabilities) {
		t.Fatalf("%d golden rows for %d table rows", len(golden), len(capabilities))
	}
	for i, g := range golden {
		if capabilities[i].feature != g.f {
			t.Errorf("table row %d is feature %#x, want %#x", i, capabilities[i].feature, g.f)
		}
		for j, p := range paths {
			if got := Blocker(g.f, p); got != g.want[j] {
				t.Errorf("Blocker(%#x, %#x) = %q, want %q", g.f, p, got, g.want[j])
			}
		}
	}
	// With the features of rows i..end present, each path reports the
	// first of them, in table order, that blocks it.
	for i := range golden {
		var rest Feature
		for _, g := range golden[i:] {
			rest |= g.f
		}
		for j, p := range paths {
			want := ""
			for _, g := range golden[i:] {
				if g.want[j] != "" {
					want = g.want[j]
					break
				}
			}
			if got := Blocker(rest, p); got != want {
				t.Errorf("Blocker(rows %d.., %#x) = %q, want %q", i, p, got, want)
			}
		}
	}
}

// TestFeatureDerivation checks the analyzer feature helper.
func TestFeatureDerivation(t *testing.T) {
	if fs := AnalyzerFeatures(core.AnalyzerConfig{Style: core.StyleGlobal}); fs != 0 {
		t.Errorf("plain global analyzer has features %#x", fs)
	}
	full := core.AnalyzerConfig{
		Style:          core.StylePrivate,
		RecordActivity: true,
		DPM:            &core.DPMConfig{},
		Trace:          new(metrics.Trace),
	}
	// Activity recording is no feature: no path returns the counters.
	want := FeatureDPM | FeaturePrivateStyle | FeatureTraceRecorder
	if fs := AnalyzerFeatures(full); fs != want {
		t.Errorf("full analyzer features %#x, want %#x", fs, want)
	}
}
