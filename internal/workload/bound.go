package workload

import (
	"math"
	"math/bits"
	"math/rand"
)

// bound draws from [0, n) exactly as math/rand's Rand.Int63n(n) does or,
// for a 31-bit bound, as Rand.Int31n(n) does: the same raw values from
// the same stream, the same power-of-two mask and the same rejection
// threshold, so every draw returns math/rand's value and consumes
// math/rand's number of source values. Only the remainder differs in
// how it is computed. math/rand divides twice per call (the threshold,
// then v % n); a bound fixes its threshold when it is made and takes the
// remainder as v − mulhi(v, ⌊(2⁶⁴−1)/n⌋)·n with one conditional
// subtraction. For v < 2⁶⁴ that estimate of ⌊v/n⌋ is exact or one
// short, so the result is v mod n.
type bound struct {
	n     uint64
	inv   uint64 // ⌊(2⁶⁴−1)/n⌋
	max   uint64 // the largest raw value accepted
	shift uint   // 32 for a 31-bit bound (Int31 is Int63>>32), else 0
	pow2  bool   // n is a power of two: the draw masks with n−1
}

// newBound returns the bound on [0, n) over raw values of the given width,
// 31 or 63 bits. n must be positive.
func newBound(n uint64, width uint) bound {
	b := bound{n: n, inv: math.MaxUint64 / n, shift: 63 - width}
	if n&(n-1) == 0 {
		b.pow2 = true
		return b
	}
	b.max = 1<<width - 1 - (1<<width)%n
	return b
}

// int63nBound is Rand.Int63n(n)'s bound.
func int63nBound(n int64) bound { return newBound(uint64(n), 63) }

// intnBound is Rand.Intn(n)'s bound: Int31n's below 2³¹, Int63n's from
// there on.
func intnBound(n int) bound {
	if n <= math.MaxInt32 {
		return newBound(uint64(n), 31)
	}
	return newBound(uint64(n), 63)
}

// draw returns the next value in [0, n) from rng.
func (b *bound) draw(rng *rand.Rand) uint64 {
	v := uint64(rng.Int63()) >> b.shift
	if b.pow2 {
		return v & (b.n - 1)
	}
	for v > b.max {
		v = uint64(rng.Int63()) >> b.shift
	}
	q, _ := bits.Mul64(v, b.inv)
	r := v - q*b.n
	if r >= b.n {
		r -= b.n
	}
	return r
}
