package core

import (
	"errors"
	"math"
)

// errCholesky reports an observed-row Gram the jittered Cholesky retries
// could not factor.
var errCholesky = errors.New("core: Cholesky failed even with jitter")

// solveSPDInto solves G·x = b for a symmetric positive-definite k×k matrix G
// by Cholesky factorization, adding a diagonal jitter and retrying when G is
// only semi-definite (masked bins can make the observed-row Gram singular).
// g is the row-major k×k matrix (k = len(b)) and is not modified; the
// solution goes to x, and l (k·k) and z (k) hold the Cholesky factor and
// the forward-substitution result. It reports false when even the largest
// jitter leaves a non-positive pivot. Its arithmetic order is pinned
// bitwise by the oracle in TestPatchMatchesAllocatingOracle.
//
//streampca:noalloc
func solveSPDInto(x, g, b, l, z []float64) bool {
	k := len(b)
	var trace float64
	for i := 0; i < k; i++ {
		trace += g[i*k+i]
	}
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if choleskyInto(l, g, k, jitter) {
			cholSolveInto(x, l, b, z)
			return true
		}
		if jitter == 0 {
			jitter = 1e-12 * (trace/float64(k) + 1e-300)
		} else {
			jitter *= 100
		}
	}
	return false
}

// choleskyInto writes the lower-triangular L with (G + jitter·I) = L·Lᵀ into
// l (row-major k×k; the strict upper triangle is left untouched and never
// read), reporting false when a pivot is non-positive.
//
//streampca:noalloc
func choleskyInto(l, g []float64, k int, jitter float64) bool {
	for i := 0; i < k; i++ {
		li := l[i*k : i*k+k]
		for j := 0; j <= i; j++ {
			lj := l[j*k : j*k+k]
			s := g[i*k+j]
			if i == j {
				s += jitter
			}
			for m := 0; m < j; m++ {
				s -= li[m] * lj[m]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return false
				}
				li[i] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
	}
	return true
}

// cholSolveInto solves L·Lᵀ·x = b by forward (into z) and back substitution.
//
//streampca:noalloc
func cholSolveInto(x, l, b, z []float64) {
	k := len(b)
	for i := 0; i < k; i++ {
		li := l[i*k : i*k+k]
		s := b[i]
		for j := 0; j < i; j++ {
			s -= li[j] * z[j]
		}
		z[i] = s / li[i]
	}
	for i := k - 1; i >= 0; i-- {
		s := z[i]
		for j := i + 1; j < k; j++ {
			s -= l[j*k+i] * x[j]
		}
		x[i] = s / l[i*k+i]
	}
}
