package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Add(0, 1)
	s.Add(1, 3)
	s.Add(2, 2)
	if s.Len() != 3 {
		t.Fatalf("Len=%d, want 3", s.Len())
	}
	if s.MaxY() != 3 {
		t.Errorf("MaxY=%v, want 3", s.MaxY())
	}
	if s.MeanY() != 2 {
		t.Errorf("MeanY=%v, want 2", s.MeanY())
	}
	if s.SumY() != 6 {
		t.Errorf("SumY=%v, want 6", s.SumY())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.MaxY() != 0 || s.MeanY() != 0 || s.SumY() != 0 {
		t.Error("empty series statistics must be zero")
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	s := Series{XUnit: "t", YUnit: "p"}
	s.Add(1, 2.5)
	s.Add(2, 3.5)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "t,p\n1,2.5\n2,3.5\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestSeriesWriteCSVDefaultHeader(t *testing.T) {
	var s Series
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "x,y\n" {
		t.Errorf("CSV = %q, want default header", b.String())
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("bad extremes: %+v", s)
	}
	if s.Mean != 2.5 || s.Median != 2.5 || s.Total != 10 {
		t.Errorf("bad center: %+v", s)
	}
	sd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Stddev-sd) > 1e-12 {
		t.Errorf("Stddev=%v, want %v", s.Stddev, sd)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Errorf("Median=%v, want 5", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Error("empty summary must be zero")
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Stddev != 0 || s.Median != 7 {
		t.Errorf("single-element summary wrong: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Summarize must not reorder its input")
	}
}
