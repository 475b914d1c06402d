// Package stats provides the statistical primitives used throughout the
// power-analysis methodology: Hamming distances between successive bus
// values, windowed time series for power-versus-time figures, summary
// statistics and linear least squares.
//
// The paper characterizes every energy macromodel in terms of the Hamming
// distance (HD) between two consecutive values of a signal, so these
// helpers are the lowest-level substrate of the whole methodology.
package stats

import "math/bits"

// Hamming returns the Hamming distance between two 64-bit values, i.e. the
// number of bit positions in which they differ. All narrower bus values
// (HADDR, HWDATA, HTRANS, ...) are widened to uint64 before comparison.
func Hamming(a, b uint64) int {
	return bits.OnesCount64(a ^ b)
}

// Hamming32 returns the Hamming distance between two 32-bit values.
func Hamming32(a, b uint32) int {
	return bits.OnesCount32(a ^ b)
}

// HammingBool returns 1 if the two boolean signal values differ, else 0.
func HammingBool(a, b bool) int {
	if a != b {
		return 1
	}
	return 0
}

// Mask returns a mask with the low w bits set. w must be in [0,64].
func Mask(w int) uint64 {
	if w <= 0 {
		return 0
	}
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// CeilLog2 returns the smallest k such that 2^k >= n, with CeilLog2(0) and
// CeilLog2(1) both 0. It is the width of a binary encoding able to index n
// distinct values.
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// PaperNI returns n_I as defined in the paper's decoder macromodel: "the
// first integer number greater than log2(n_O - 1)". For powers of two plus
// one the strict inequality matters, so this is not simply CeilLog2.
func PaperNI(nO int) int {
	if nO <= 1 {
		return 1
	}
	m := nO - 1
	// first integer strictly greater than log2(m)
	k := bits.Len(uint(m)) - 1 // floor(log2(m))
	if m == 1<<uint(k) {
		// log2(m) is exactly k, so the first integer greater than it is k+1.
		return k + 1
	}
	return k + 1
}
