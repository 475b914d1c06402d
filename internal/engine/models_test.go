package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ahbpower/internal/charact"
	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/power"
	"ahbpower/internal/tlm"
	"ahbpower/internal/workload"
)

// TestRunOneRefusesModelsForAnotherShape runs a model set built for the
// paper's 3-master, 3-slave, 32-bit bus on an 8-slave, 16-bit bus through
// every path that evaluates macromodels. Each must fail the scenario with
// an error naming the mismatched dimension rather than report energies
// from a decoder and muxes sized for another bus.
func TestRunOneRefusesModelsForAnotherShape(t *testing.T) {
	models, err := power.ResolveModels(nil, 3, 3, 32, power.Tech{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.PaperSystem()
	sys.NumSlaves = 8
	sys.DataWidth = 16
	for _, tc := range []struct{ backend, accuracy, path string }{
		{exec.NameEvent, "", exec.NameEvent},
		{exec.NameCompiled, "", exec.NameCompiled},
		{exec.NameLanes, "", exec.NameCompiled},
		{"", AccuracyTransaction, tlm.Name},
	} {
		sc := Scenario{
			Name:     "mismatch-" + tc.backend + tc.accuracy,
			System:   sys,
			Analyzer: core.AnalyzerConfig{Models: models},
			Cycles:   2000,
			Backend:  tc.backend,
			Accuracy: tc.accuracy,
		}
		res := RunOne(context.Background(), sc)
		if res.Backend != tc.path {
			t.Errorf("%s: ran on %q, want %q", sc.Name, res.Backend, tc.path)
		}
		if res.Err == nil || !strings.Contains(res.Err.Error(), "decoder.NO=3") {
			t.Errorf("%s: err = %v, want a refusal naming decoder.NO", sc.Name, res.Err)
		}
	}
}

// TestSharedModelsConcurrentRuns attaches one characterized model set to
// eight scenarios spread over the event and compiled paths, the lanes hint
// (which runs compiled) and the transaction path and runs them on a 4-worker Runner. Every result must equal the
// scenario run alone on a private copy of the models, and the shared set's
// coefficients must be unchanged afterwards. Under -race this is the
// check that a model set is only ever read during a run.
func TestSharedModelsConcurrentRuns(t *testing.T) {
	models, err := charact.Characterize(charact.Config{NumMasters: 3, NumSlaves: 3, Vectors: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := power.SaveModels(&before, models); err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		backend, accuracy, path string
		style                   core.Style
	}{
		{exec.NameEvent, "", exec.NameEvent, core.StylePrivate},
		{exec.NameCompiled, "", exec.NameCompiled, core.StyleLocal},
		{exec.NameLanes, "", exec.NameCompiled, core.StyleGlobal},
		{"", AccuracyTransaction, tlm.Name, core.StyleGlobal},
	}
	var scs []Scenario
	for i := 0; i < 8; i++ {
		p := paths[i%len(paths)]
		scs = append(scs, Scenario{
			Name:     fmt.Sprintf("shared-%s-%d", p.path, i),
			System:   core.PaperSystem(),
			Analyzer: core.AnalyzerConfig{Style: p.style, Models: models},
			Workloads: []workload.Config{
				{Seed: int64(30 + i), NumSequences: 16, PairsMin: 2, PairsMax: 5, AddrSize: 0x4000},
			},
			Cycles:   3000,
			Backend:  p.backend,
			Accuracy: p.accuracy,
		})
	}
	shared := NewRunner(4).Run(context.Background(), scs)

	for i, sc := range scs {
		own, err := power.LoadModels(bytes.NewReader(before.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sc.Analyzer.Models = own
		alone := RunOne(context.Background(), sc)
		got := shared[i]
		if got.Err != nil || alone.Err != nil {
			t.Fatalf("%s: shared err %v, alone err %v", sc.Name, got.Err, alone.Err)
		}
		if want := paths[i%len(paths)].path; got.Backend != want {
			t.Errorf("%s: ran on %q, want %q", sc.Name, got.Backend, want)
		}
		if g, w := math.Float64bits(got.Report.TotalEnergy), math.Float64bits(alone.Report.TotalEnergy); g != w {
			t.Errorf("%s: TotalEnergy bits shared=%#x alone=%#x", sc.Name, g, w)
		}
		if !reflect.DeepEqual(got.Report, alone.Report) || !reflect.DeepEqual(got.Stats, alone.Stats) {
			t.Errorf("%s: shared-models result differs from the run on a private copy", sc.Name)
		}
	}
	var after bytes.Buffer
	if err := power.SaveModels(&after, models); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("running on the shared model set changed its coefficients")
	}
}
