package workload

import (
	"math"
	"math/rand"
	"testing"
)

// checkBound draws from a bound and from math/rand's method on twin
// sources, and fails unless every value matches and both sources are
// left at the same point, so the bound consumed exactly math/rand's
// number of source values.
func checkBound(t *testing.T, name string, seed int64, b bound, want func(*rand.Rand) uint64) {
	t.Helper()
	got, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < 64; i++ {
		if g, w := b.draw(got), want(ref); g != w {
			t.Fatalf("%s, seed %d: draw %d is %d, math/rand gives %d", name, seed, i, g, w)
		}
	}
	if g, w := got.Int63(), ref.Int63(); g != w {
		t.Fatalf("%s, seed %d: the bound consumed a different number of source values", name, seed)
	}
}

// FuzzBoundedDrawMatchesMathRand pins the cursor's bounded draws to
// math/rand's: for any seed and n, Int63n's bound must yield Int63n(n)'s
// stream, and Intn's bound Intn(n)'s, which is Int31n(n)'s below 2³¹. The
// seeds cover n = 1, powers of two, n on either side of 2³¹ and n near
// 2⁶² and 2⁶³, where math/rand rejects up to half of its raw values.
func FuzzBoundedDrawMatchesMathRand(f *testing.F) {
	for _, n := range []uint64{
		1, 2, 3, 6, 7, 32, 0x1000, 0x3000, 1<<31 - 1, 1 << 31, 1<<31 + 1,
		1 << 40, 1<<40 + 3, 1<<62 - 1, 1 << 62, 1<<62 + 1, 3 << 61, 1<<63 - 1<<61 + 5, 1<<63 - 1,
	} {
		for _, seed := range []int64{1, 0x5EED, -7, math.MaxInt64} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint64) {
		n63 := int64(n &^ (1 << 63))
		if n63 == 0 {
			n63 = 1
		}
		checkBound(t, "Int63n", seed, int63nBound(n63), func(r *rand.Rand) uint64 { return uint64(r.Int63n(n63)) })
		if uint64(n63) <= math.MaxInt {
			checkBound(t, "Intn", seed, intnBound(int(n63)), func(r *rand.Rand) uint64 { return uint64(r.Intn(int(n63))) })
		}
		n31 := int32(n63 & math.MaxInt32)
		if n31 == 0 {
			n31 = 1
		}
		checkBound(t, "Int31n", seed, intnBound(int(n31)), func(r *rand.Rand) uint64 { return uint64(r.Int31n(n31)) })
	})
}
