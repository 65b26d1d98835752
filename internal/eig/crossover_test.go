package eig

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/mat"
)

// randGram returns XᵀX for a random 3n×n X: a dense SPD matrix shaped like
// the warm-up Gram systems SymEig solves.
func randGram(rng *rand.Rand, n int) *mat.Dense {
	x := mat.NewDense(3*n, n)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return mat.Gram(nil, x)
}

// arrowGram returns the (k+1)×(k+1) arrowhead Gram of the rank-one rebuild
// (diag(D²) bordered by D·c, corner ‖y‖²), with n = k+1. When collapsed,
// the trailing third of D is zero, giving a repeated zero eigenvalue.
func arrowGram(rng *rand.Rand, n int, collapsed bool) *mat.Dense {
	k := n - 1
	a := mat.NewDense(n, n)
	var c2 float64
	for j := 0; j < k; j++ {
		s := math.Exp(-0.5*float64(j)) * (1 + 0.1*rng.Float64())
		if collapsed && j >= k-k/3 {
			s = 0
		}
		c := rng.NormFloat64()
		c2 += c * c
		a.Set(j, j, s*s)
		a.Set(j, k, s*c)
		a.Set(k, j, s*c)
	}
	a.Set(k, k, c2+1+rng.Float64())
	return a
}

// eigClusters splits descending eigenvalues into runs whose neighbours lie
// within tol of each other; a run's eigenvectors are only defined as a
// subspace.
func eigClusters(vals []float64, tol float64) [][2]int {
	var out [][2]int
	lo := 0
	for i := 1; i <= len(vals); i++ {
		if i == len(vals) || vals[i-1]-vals[i] > tol {
			out = append(out, [2]int{lo, i})
			lo = i
		}
	}
	return out
}

// projectorGap returns ‖P_a − P_b‖_F for the projectors onto columns
// [lo, hi) of va and vb.
func projectorGap(va, vb *mat.Dense, lo, hi int) float64 {
	n := va.Rows()
	var s float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var pa, pb float64
			for c := lo; c < hi; c++ {
				pa += va.At(i, c) * va.At(j, c)
				pb += vb.At(i, c) * vb.At(j, c)
			}
			s += (pa - pb) * (pa - pb)
		}
	}
	return math.Sqrt(s)
}

// TestTridiagJacobiAgreeSmallN backs the SymEig crossover: on
// random SPD Grams and on rank-one-rebuild arrowhead Grams (plain and with
// a collapsed, repeated-zero spectrum) the tridiagonal route agrees with
// cyclic Jacobi for every n = 2..32 — eigenvalues within 1e-12·‖A‖₂ and the
// eigenvector subspace of every eigenvalue cluster matching.
func TestTridiagJacobiAgreeSmallN(t *testing.T) {
	rng := rand.New(rand.NewPCG(904, 5))
	for n := 2; n <= 32; n++ {
		cases := map[string]*mat.Dense{
			"gram":      randGram(rng, n),
			"arrow":     arrowGram(rng, n, false),
			"collapsed": arrowGram(rng, n, true),
		}
		for name, a := range cases {
			tv, tvec, tok := TridiagSym(a, nil)
			jv, jvec, jok := JacobiSym(a, nil)
			if !tok || !jok {
				t.Fatalf("n=%d %s: convergence tridiag=%v jacobi=%v", n, name, tok, jok)
			}
			norm := math.Max(math.Abs(jv[0]), math.Abs(jv[n-1]))
			for i := range jv {
				if math.Abs(tv[i]-jv[i]) > 1e-12*norm {
					t.Fatalf("n=%d %s: eigenvalue %d tridiag %v vs jacobi %v", n, name, i, tv[i], jv[i])
				}
			}
			for _, cl := range eigClusters(jv, 1e-8*norm) {
				// Subspace error scales like ε‖A‖ over the gap to the rest
				// of the spectrum; clusters are at least 1e-8·‖A‖ apart.
				if g := projectorGap(tvec, jvec, cl[0], cl[1]); g > 1e-6 {
					t.Fatalf("n=%d %s: eigenvectors %d..%d span different subspaces (gap %v)",
						n, name, cl[0], cl[1]-1, g)
				}
			}
		}
	}
}

// BenchmarkSymEigCrossover times SymEig's two routes (each with its working
// copy, as SymEig runs them) on random SPD Grams from n = 2 to the old
// n = 32 threshold; symEigTridiagMin is set from these numbers.
func BenchmarkSymEigCrossover(b *testing.B) {
	for _, n := range []int{2, 3, 5, 7, 12, 16, 24, 32} {
		a := randGram(rand.New(rand.NewPCG(2, uint64(n))), n)
		b.Run(fmt.Sprintf("n=%d/jacobi", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				symEigJacobi(a)
			}
		})
		b.Run(fmt.Sprintf("n=%d/tridiag", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				symEigTridiag(a)
			}
		})
	}
}
