package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzHamming checks both Hamming-distance widths against a naive bit
// loop and verifies the metric's algebraic identities.
func FuzzHamming(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0xdeadbeef), uint64(0xbeefdead))
	f.Add(^uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		naive := func(x uint64) int {
			n := 0
			for ; x != 0; x >>= 1 {
				n += int(x & 1)
			}
			return n
		}
		if got, want := Hamming(a, b), naive(a^b); got != want {
			t.Fatalf("Hamming(%#x,%#x)=%d, naive=%d", a, b, got, want)
		}
		if Hamming(a, b) != Hamming(b, a) {
			t.Fatalf("Hamming not symmetric for %#x,%#x", a, b)
		}
		if Hamming(a, a) != 0 {
			t.Fatalf("Hamming(%#x, same) != 0", a)
		}
		a32, b32 := uint32(a), uint32(b)
		if got, want := Hamming32(a32, b32), naive(uint64(a32^b32)); got != want {
			t.Fatalf("Hamming32(%#x,%#x)=%d, naive=%d", a32, b32, got, want)
		}
	})
}

// FuzzSeriesCSV feeds arbitrary bytes to the series parser: it must never
// panic, and anything it accepts must survive a write/re-parse round trip
// unchanged (parse -> serialize -> parse is a fixed point).
func FuzzSeriesCSV(f *testing.F) {
	f.Add([]byte("t_s,power_W\n1,2.5\n2,3.5\n"))
	f.Add([]byte("x,y\n"))
	f.Add([]byte("a,b\nNaN,+Inf\n-Inf,0\n"))
	f.Add([]byte("x,y\n1e308,5e-324\n"))
	f.Add([]byte("bad"))
	f.Add([]byte("x,y\n1,2,3\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseCSV(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		var out strings.Builder
		if err := s.WriteCSV(&out); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		s2, err := ParseCSV(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput: %q", err, out.String())
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round trip changed length: %d -> %d", s.Len(), s2.Len())
		}
		for i := range s.Points {
			if !sameFloat(s.Points[i].X, s2.Points[i].X) || !sameFloat(s.Points[i].Y, s2.Points[i].Y) {
				t.Fatalf("point %d changed: %+v -> %+v", i, s.Points[i], s2.Points[i])
			}
		}
	})
}

// sameFloat compares floats treating every NaN as equal to every NaN (the
// bit payload is not preserved by the textual form).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// TestSeriesCSVRoundTrip pins the exact inverse property on a concrete
// series, including the unit header and extreme values.
func TestSeriesCSVRoundTrip(t *testing.T) {
	s := &Series{Name: "p", XUnit: "time_s", YUnit: "power_W"}
	for _, p := range []Point{
		{0, 0}, {1e-9, 3.25e-3}, {2e-9, -1}, {3e-9, math.MaxFloat64},
		{4e-9, 5e-324}, {5e-9, math.Inf(1)}, {6e-9, math.Inf(-1)},
	} {
		s.Add(p.X, p.Y)
	}
	var buf strings.Builder
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.XUnit != s.XUnit || got.YUnit != s.YUnit {
		t.Errorf("units = %q,%q, want %q,%q", got.XUnit, got.YUnit, s.XUnit, s.YUnit)
	}
	if got.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), s.Len())
	}
	for i := range s.Points {
		if got.Points[i] != s.Points[i] {
			t.Errorf("point %d = %+v, want %+v", i, got.Points[i], s.Points[i])
		}
	}
}

// TestParseCSVRejectsMalformed pins the error paths.
func TestParseCSVRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",                 // empty
		"onecolumn\n",      // header without comma
		"x,y,z\n",          // three-column header
		"x,y\n1\n",         // row without comma
		"x,y\n1,2,3\n",     // three-column row
		"x,y\nfoo,2\n",     // bad x
		"x,y\n1,bar\n",     // bad y
		"x,y\n1,2\n3,\n",   // empty y
		"x,y\n0x1p2,1\n\n", // hex float (ParseFloat accepts "0x1p2"? it does) — see below
	} {
		_, err := ParseCSV(strings.NewReader(bad))
		if bad == "x,y\n0x1p2,1\n\n" {
			// strconv.ParseFloat accepts hex floats; this input is legal.
			if err != nil {
				t.Errorf("ParseCSV(%q) unexpectedly failed: %v", bad, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseCSV(%q) succeeded, want error", bad)
		}
	}
}
