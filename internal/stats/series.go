package stats

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Point is a single sample of a time series. X is typically simulation time
// in seconds; Y a power or energy value.
type Point struct {
	X float64
	Y float64
}

// Series is an ordered sequence of samples, used for the paper's
// power-versus-time figures (Figs. 3-5).
type Series struct {
	Name   string
	XUnit  string
	YUnit  string
	Points []Point
}

// Add appends a sample to the series.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// MaxY returns the maximum Y value, or 0 for an empty series.
func (s *Series) MaxY() float64 {
	m := 0.0
	for i, p := range s.Points {
		if i == 0 || p.Y > m {
			m = p.Y
		}
	}
	return m
}

// MeanY returns the arithmetic mean of Y, or 0 for an empty series.
func (s *Series) MeanY() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Y
	}
	return sum / float64(len(s.Points))
}

// SumY returns the sum of all Y values.
func (s *Series) SumY() float64 {
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Y
	}
	return sum
}

// WriteCSV emits the series as a two-column CSV with a header line.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s,%s\n", nonEmpty(s.XUnit, "x"), nonEmpty(s.YUnit, "y")); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%g,%g\n", p.X, p.Y); err != nil {
			return err
		}
	}
	return nil
}

func nonEmpty(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

// ParseCSV reads a series previously emitted by WriteCSV: a two-column
// header line naming the units followed by one "x,y" row per point. The
// %g formatting WriteCSV uses round-trips float64 exactly, so
// ParseCSV(WriteCSV(s)) reproduces s bit for bit. It rejects rows with a
// missing column, trailing fields or unparsable numbers.
func ParseCSV(r io.Reader) (*Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("stats: series CSV is empty")
	}
	header := sc.Text()
	xu, yu, ok := strings.Cut(header, ",")
	if !ok || strings.Contains(yu, ",") {
		return nil, fmt.Errorf("stats: series CSV header %q, want two comma-separated units", header)
	}
	s := &Series{XUnit: xu, YUnit: yu}
	line := 1
	for sc.Scan() {
		line++
		row := sc.Text()
		if row == "" {
			continue // tolerate a trailing blank line
		}
		xs, ys, ok := strings.Cut(row, ",")
		if !ok || strings.Contains(ys, ",") {
			return nil, fmt.Errorf("stats: series CSV line %d: %q, want two columns", line, row)
		}
		x, err := strconv.ParseFloat(xs, 64)
		if err != nil {
			return nil, fmt.Errorf("stats: series CSV line %d: bad x %q: %v", line, xs, err)
		}
		y, err := strconv.ParseFloat(ys, 64)
		if err != nil {
			return nil, fmt.Errorf("stats: series CSV line %d: bad y %q: %v", line, ys, err)
		}
		s.Add(x, y)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// Summary holds the usual descriptive statistics for a slice of values.
type Summary struct {
	N            int
	Min, Max     float64
	Mean, Stddev float64
	Median       float64
	Total        float64
}

// Summarize computes summary statistics for vs. It returns the zero value
// for an empty slice.
func Summarize(vs []float64) Summary {
	var s Summary
	s.N = len(vs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	if s.N%2 == 1 {
		s.Median = sorted[s.N/2]
	} else {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	for _, v := range vs {
		s.Total += v
	}
	s.Mean = s.Total / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, v := range vs {
			d := v - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}
