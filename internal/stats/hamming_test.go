package stats

import (
	"testing"
	"testing/quick"
)

func TestHammingBasics(t *testing.T) {
	cases := []struct {
		a, b uint64
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0xFF, 0x00, 8},
		{0xAAAA, 0x5555, 16},
		{^uint64(0), 0, 64},
		{0b1010, 0b1001, 2},
	}
	for _, c := range cases {
		if got := Hamming(c.a, c.b); got != c.want {
			t.Errorf("Hamming(%#x,%#x) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHammingSymmetric(t *testing.T) {
	f := func(a, b uint64) bool { return Hamming(a, b) == Hamming(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingIdentity(t *testing.T) {
	f := func(a uint64) bool { return Hamming(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingTriangleInequality(t *testing.T) {
	f := func(a, b, c uint64) bool {
		return Hamming(a, c) <= Hamming(a, b)+Hamming(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHamming32MatchesHamming(t *testing.T) {
	f := func(a, b uint32) bool {
		return Hamming32(a, b) == Hamming(uint64(a), uint64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingBool(t *testing.T) {
	if HammingBool(true, true) != 0 || HammingBool(false, false) != 0 {
		t.Error("equal booleans must have distance 0")
	}
	if HammingBool(true, false) != 1 || HammingBool(false, true) != 1 {
		t.Error("unequal booleans must have distance 1")
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		w    int
		want uint64
	}{
		{0, 0}, {-3, 0}, {1, 1}, {4, 0xF}, {8, 0xFF}, {32, 0xFFFFFFFF}, {64, ^uint64(0)}, {100, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.w); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.w, got, c.want)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := CeilLog2(c.n); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPaperNI(t *testing.T) {
	// "the first integer number greater than log2(n_O - 1)"
	cases := []struct{ nO, want int }{
		{2, 1},  // log2(1)=0 -> 1
		{3, 2},  // log2(2)=1 -> 2
		{4, 2},  // log2(3)=1.58 -> 2
		{5, 3},  // log2(4)=2 -> 3
		{8, 3},  // log2(7)=2.8 -> 3
		{9, 4},  // log2(8)=3 -> 4
		{16, 4}, // log2(15)=3.9 -> 4
		{17, 5}, // log2(16)=4 -> 5
	}
	for _, c := range cases {
		if got := PaperNI(c.nO); got != c.want {
			t.Errorf("PaperNI(%d) = %d, want %d", c.nO, got, c.want)
		}
	}
}
