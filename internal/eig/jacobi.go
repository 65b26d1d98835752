// Package eig implements the dense eigenvalue and singular-value solvers
// streampca needs: a cyclic Jacobi eigensolver for symmetric matrices, thin
// SVD for tall matrices (via the Gram matrix and via one-sided Jacobi), and
// Householder QR. All solvers are deterministic and allocation-light; the
// hot path of the streaming PCA engine is ThinSVD on a d×(p+1) matrix with
// p+1 ≪ d, for which the Gram route costs O(d·(p+1)²) flops plus a tiny
// (p+1)×(p+1) eigenproblem.
package eig

import (
	"math"

	"streampca/internal/mat"
)

// jacobiMaxSweeps bounds the cyclic Jacobi iteration. Convergence is
// quadratic once off-diagonal mass is small; well-conditioned inputs finish
// in ≤ ~8 sweeps, and 60 is far beyond anything a non-adversarial matrix
// needs. Exceeding it indicates NaN/Inf inputs and returns ok=false.
const jacobiMaxSweeps = 60

// SymEig computes the full eigendecomposition of the symmetric matrix a
// (only its upper triangle is read): a = V·diag(values)·Vᵀ with eigenvalues
// sorted in descending order and eigenvectors as the corresponding columns
// of V. a is not modified. ok is false when the iteration failed to
// converge (NaN/Inf inputs).
func SymEig(a *mat.Dense) (values []float64, v *mat.Dense, ok bool) {
	n := a.Rows()
	if a.Cols() != n {
		panic("eig: SymEig requires a square matrix")
	}
	// Work on a symmetric copy.
	w := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			x := a.At(i, j)
			w.Set(i, j, x)
			w.Set(j, i, x)
		}
	}
	v = mat.Identity(n)
	if n == 0 {
		return nil, v, true
	}
	if n == 1 {
		return []float64{w.At(0, 0)}, v, !math.IsNaN(w.At(0, 0))
	}

	for _, x := range w.Data() {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			values = make([]float64, n)
			for i := 0; i < n; i++ {
				values[i] = w.At(i, i)
			}
			return values, v, false
		}
	}

	// Fall back to Jacobi if QL fails to converge (essentially never for
	// finite input).
	if n >= symEigTridiagMin {
		if tv, tvec, tok := symEigTridiag(w); tok {
			return tv, tvec, true
		}
	}
	return jacobiSweeps(w, v)
}

// symEigTridiagMin is the smallest n SymEig hands to the tridiagonal route
// (tred2/tql2) instead of cyclic Jacobi. BenchmarkSymEigCrossover, each
// route with its working copy on a random n×n SPD Gram (Intel Xeon, 2 vCPU,
// go1.24, median of 3), puts the crossover below every size SymEig sees:
//
//	n        2     3     5     7    12    16    24     32
//	jacobi  0.61  1.59  6.5  19.3   87   215   489   1421  µs
//	tridiag 0.39  1.07  3.1   6.2   22    44   109    318  µs
//
// so every n ≥ 2 — the 24×24 warm-up Gram and the (2k+1)-column merge Grams
// included — takes tred2/tql2. For n = 2..32 the two routes agree to
// 1e-12·‖A‖ (TestTridiagJacobiAgreeSmallN). The steady-state
// rank-one rebuild calls JacobiSym directly and is unaffected.
const symEigTridiagMin = 2

// symEigJacobi runs the cyclic Jacobi path unconditionally (benchmarks and
// cross-checks); same contract as SymEig.
func symEigJacobi(a *mat.Dense) (values []float64, v *mat.Dense, ok bool) {
	n := a.Rows()
	w := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			x := a.At(i, j)
			w.Set(i, j, x)
			w.Set(j, i, x)
		}
	}
	return jacobiSweeps(w, mat.Identity(n))
}

// SymEigWorkspace holds the working copy, eigenvector accumulator and value
// buffer for JacobiSym so repeated same-sized eigenproblems run without heap
// allocations. Not safe for concurrent use; the slices and matrix returned
// by JacobiSym are workspace-owned and valid until the next call.
type SymEigWorkspace struct {
	n      int
	w, v   *mat.Dense
	values []float64
	sub    []float64 // sub-diagonal scratch for the tridiagonal route
}

// NewSymEigWorkspace preallocates for n×n symmetric inputs.
func NewSymEigWorkspace(n int) *SymEigWorkspace {
	if n < 0 {
		panic("eig: negative workspace dimension")
	}
	return &SymEigWorkspace{
		n:      n,
		w:      mat.NewDense(n, n),
		v:      mat.NewDense(n, n),
		values: make([]float64, n),
		sub:    make([]float64, n),
	}
}

// JacobiSym is the workspace-accepting variant of SymEig: it computes the
// eigendecomposition of the symmetric matrix a (upper triangle read, a
// unmodified) entirely inside ws, performing zero heap allocations. It always
// runs cyclic Jacobi. The steady-state rank-one rebuild keeps it for its
// (p+1)×(p+1) Gram systems so that its results stay bitwise reproducible;
// TridiagSym is faster at every size (see symEigTridiagMin). A nil ws is
// allowed and behaves like SymEig restricted to the Jacobi path.
func JacobiSym(a *mat.Dense, ws *SymEigWorkspace) (values []float64, v *mat.Dense, ok bool) {
	n := a.Rows()
	if a.Cols() != n {
		panic("eig: JacobiSym requires a square matrix")
	}
	if ws == nil {
		ws = NewSymEigWorkspace(n)
	}
	if ws.n != n {
		panic("eig: JacobiSym workspace dimension mismatch")
	}
	// Symmetrize into the working copy and reset the accumulator to I,
	// touching the backing slices directly.
	wd, vd := ws.w.Data(), ws.v.Data()
	ad := a.Data()
	for i := 0; i < n; i++ {
		wd[i*n+i] = ad[i*n+i]
		for j := i + 1; j < n; j++ {
			x := ad[i*n+j]
			wd[i*n+j] = x
			wd[j*n+i] = x
		}
	}
	for i := range vd {
		vd[i] = 0
	}
	for i := 0; i < n; i++ {
		vd[i*n+i] = 1
	}
	if n == 0 {
		return ws.values, ws.v, true
	}
	if n == 1 {
		ws.values[0] = wd[0]
		return ws.values, ws.v, !math.IsNaN(wd[0])
	}
	for _, x := range wd {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			for i := 0; i < n; i++ {
				ws.values[i] = wd[i*n+i]
			}
			return ws.values, ws.v, false
		}
	}
	_, _, ok = jacobiSweepsInto(ws.w, ws.v, ws.values)
	return ws.values, ws.v, ok
}

// jacobiSweeps runs threshold-cyclic Jacobi on the symmetric working copy
// w, accumulating rotations into v. Both are consumed.
func jacobiSweeps(w, v *mat.Dense) (values []float64, vv *mat.Dense, ok bool) {
	return jacobiSweepsInto(w, v, make([]float64, w.Rows()))
}

// jacobiSweepsInto is jacobiSweeps with a caller-owned eigenvalue buffer; it
// performs no heap allocations.
func jacobiSweepsInto(w, v *mat.Dense, values []float64) ([]float64, *mat.Dense, bool) {
	n := w.Rows()
	wd := w.Data()
	ok := false
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := offDiagNorm(w)
		if !(off > 0) { // covers 0 and NaN
			ok = off == 0
			break
		}
		// Threshold strategy from Golub & Van Loan: rotate every pair whose
		// off-diagonal entry exceeds a shrinking fraction of the total.
		thresh := 0.0
		if sweep < 3 {
			thresh = 0.2 * off / float64(n*n)
		}
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := wd[p*n+q]
				if math.Abs(apq) <= thresh {
					continue
				}
				app, aqq := wd[p*n+p], wd[q*n+q]
				// Skip rotations that cannot change anything at double
				// precision.
				if math.Abs(apq) < 1e-300 ||
					math.Abs(apq) <= math.Abs(app)*1e-18 && math.Abs(apq) <= math.Abs(aqq)*1e-18 {
					wd[p*n+q] = 0
					wd[q*n+p] = 0
					continue
				}
				c, s := symSchur(app, apq, aqq)
				applyJacobi(w, v, p, q, c, s)
				rotated = true
			}
		}
		if !rotated && thresh == 0 {
			ok = true
			break
		}
	}
	if !ok && offDiagNorm(w) <= 1e-12*(1+diagNorm(w)) {
		ok = true
	}

	for i := 0; i < n; i++ {
		values[i] = wd[i*n+i]
	}
	sortEigenDescending(values, v)
	return values, v, ok
}

// symSchur returns the cosine and sine of the Jacobi rotation annihilating
// the (p,q) entry of a symmetric 2×2 block [[app, apq], [apq, aqq]].
func symSchur(app, apq, aqq float64) (c, s float64) {
	if apq == 0 {
		return 1, 0
	}
	tau := (aqq - app) / (2 * apq)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c = 1 / math.Sqrt(1+t*t)
	s = t * c
	return c, s
}

// applyJacobi applies the rotation J(p,q,θ) as w ← JᵀwJ and accumulates
// v ← vJ. It indexes the backing slices directly — the rotation runs O(n)
// times per sweep, so per-element bounds checks would dominate the small
// eigenproblems on the streaming hot path.
func applyJacobi(w, v *mat.Dense, p, q int, c, s float64) {
	n := w.Rows()
	wd := w.Data()
	for k := 0; k < n; k++ {
		kp, kq := k*n+p, k*n+q
		wkp, wkq := wd[kp], wd[kq]
		wd[kp] = c*wkp - s*wkq
		wd[kq] = s*wkp + c*wkq
	}
	wp := wd[p*n : (p+1)*n]
	wq := wd[q*n : (q+1)*n][:n]
	for k, wpk := range wp {
		wqk := wq[k]
		wp[k] = c*wpk - s*wqk
		wq[k] = s*wpk + c*wqk
	}
	vn := v.Cols()
	vd := v.Data()
	for k := 0; k < v.Rows(); k++ {
		kp, kq := k*vn+p, k*vn+q
		vkp, vkq := vd[kp], vd[kq]
		vd[kp] = c*vkp - s*vkq
		vd[kq] = s*vkp + c*vkq
	}
}

// offDiagNorm and diagNorm read the backing slice directly; they run once
// per Jacobi sweep on the rank-one rebuild's hot path.
func offDiagNorm(w *mat.Dense) float64 {
	n := w.Rows()
	wd := w.Data()
	var s float64
	for i := 0; i < n; i++ {
		for _, x := range wd[i*n+i+1 : i*n+n] {
			s += 2 * x * x
		}
	}
	return math.Sqrt(s)
}

func diagNorm(w *mat.Dense) float64 {
	n := w.Rows()
	wd := w.Data()
	var s float64
	for i := 0; i < n; i++ {
		x := wd[i*n+i]
		s += x * x
	}
	return math.Sqrt(s)
}

// sortEigenDescending reorders values (and the corresponding columns of v)
// in place so values are descending. Selection sort with in-place column
// swaps: allocation free and deterministic, and n is small everywhere this
// runs (p+1 on the hot path). Exactly-tied eigenvalues may emerge in either
// order — their eigenspace basis is arbitrary regardless.
func sortEigenDescending(values []float64, v *mat.Dense) {
	n := len(values)
	vn := v.Cols()
	vd := v.Data()
	rows := v.Rows()
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if values[j] > values[best] {
				best = j
			}
		}
		if best == i {
			continue
		}
		values[i], values[best] = values[best], values[i]
		for k := 0; k < rows; k++ {
			ki, kb := k*vn+i, k*vn+best
			vd[ki], vd[kb] = vd[kb], vd[ki]
		}
	}
}
