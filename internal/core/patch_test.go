package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/mat"
)

// patchLSRef is the allocating, accessor-based gap patch the workspace
// kernel replaced, kept verbatim (with its Dense-based Cholesky solve) as
// the exact-order oracle: patchScratch.patch must reproduce it bit for bit.
func patchLSRef(basis *mat.Dense, mean, x []float64, mask []bool) (patched, coef []float64, err error) {
	d, k := basis.Dims()
	g := mat.NewDense(k, k)
	b := make([]float64, k)
	for i := 0; i < d; i++ {
		if !mask[i] {
			continue
		}
		row := basis.Row(i)
		yi := x[i] - mean[i]
		for a := 0; a < k; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			b[a] += ra * yi
			ga := g.Row(a)
			for c := a; c < k; c++ {
				ga[c] += ra * row[c]
			}
		}
	}
	for a := 0; a < k; a++ {
		for c := a + 1; c < k; c++ {
			g.Set(c, a, g.At(a, c))
		}
	}
	coef, err = solveSPDRef(g, b)
	if err != nil {
		return nil, nil, err
	}
	patched = make([]float64, d)
	for i := 0; i < d; i++ {
		if mask[i] {
			patched[i] = x[i]
			continue
		}
		v := mean[i]
		row := basis.Row(i)
		for a := 0; a < k; a++ {
			v += row[a] * coef[a]
		}
		patched[i] = v
	}
	return patched, coef, nil
}

func solveSPDRef(g *mat.Dense, b []float64) ([]float64, error) {
	k := g.Rows()
	var trace float64
	for i := 0; i < k; i++ {
		trace += g.At(i, i)
	}
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if l, ok := choleskyRef(g, jitter); ok {
			return cholSolveRef(l, b), nil
		}
		if jitter == 0 {
			jitter = 1e-12 * (trace/float64(k) + 1e-300)
		} else {
			jitter *= 100
		}
	}
	return nil, errCholesky
}

func choleskyRef(g *mat.Dense, jitter float64) (*mat.Dense, bool) {
	k := g.Rows()
	l := mat.NewDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			s := g.At(i, j)
			if i == j {
				s += jitter
			}
			for m := 0; m < j; m++ {
				s -= l.At(i, m) * l.At(j, m)
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, false
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, true
}

func cholSolveRef(l *mat.Dense, b []float64) []float64 {
	k := l.Rows()
	y := make([]float64, k)
	for i := 0; i < k; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		y[i] = s / l.At(i, i)
	}
	x := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < k; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// maskObserving returns a mask of length d with exactly nObs observed bins
// at random positions.
func maskObserving(rng *rand.Rand, d, nObs int) []bool {
	mask := make([]bool, d)
	for _, i := range rng.Perm(d)[:nObs] {
		mask[i] = true
	}
	return mask
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPatchMatchesAllocatingOracle pins the workspace gap patch to the
// allocating implementation: bitwise equal patched rows and coefficients
// for k = 1..12, odd and even d, masks observing k+1 through d−1 bins (NaN
// in every masked bin), one reused scratch across all calls, and a basis
// with an all-zero column so the jittered Cholesky retries run too.
func TestPatchMatchesAllocatingOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for k := 1; k <= 12; k++ {
		for _, d := range []int{k + 2, k + 3, 2*k + 5, 40, 41} {
			ps := newPatchScratch(d, k)
			for trial := 0; trial < 3; trial++ {
				basis := mat.NewDense(d, k)
				for i := range basis.Data() {
					basis.Data()[i] = rng.NormFloat64()
				}
				if trial == 2 {
					for i := 0; i < d; i++ {
						basis.Set(i, k-1, 0) // singular observed-row Gram
					}
				}
				mean := make([]float64, d)
				x := make([]float64, d)
				for i := range x {
					mean[i] = rng.NormFloat64()
					x[i] = rng.NormFloat64()
				}
				for nObs := k + 1; nObs < d; nObs++ {
					mask := maskObserving(rng, d, nObs)
					xg := mat.CopyVec(x)
					for i, ok := range mask {
						if !ok {
							xg[i] = math.NaN()
						}
					}
					wantP, wantC, wantErr := patchLSRef(basis, mean, xg, mask)
					if ok := ps.patch(basis, mean, xg, mask); ok != (wantErr == nil) {
						t.Fatalf("k=%d d=%d nObs=%d: patch ok=%v, oracle error %v", k, d, nObs, ok, wantErr)
					}
					if wantErr != nil {
						continue
					}
					if !sameBits(ps.patched, wantP) || !sameBits(ps.coef, wantC) {
						t.Fatalf("k=%d d=%d nObs=%d trial=%d: patch differs from the oracle", k, d, nObs, trial)
					}
					gotP, gotC, err := patchLS(basis, mean, xg, mask)
					if err != nil || !sameBits(gotP, wantP) || !sameBits(gotC, wantC) {
						t.Fatalf("k=%d d=%d nObs=%d: patchLS differs from the oracle", k, d, nObs)
					}
				}
			}
		}
	}
}

// TestObserveMaskedMatchesOraclePatch runs two identical engines over the
// same gappy stream — one through ObserveMasked, one patching with the
// allocating oracle and feeding the patched row to the same update — and
// requires bitwise-identical eigensystems and update reports at every step,
// for pool worker counts 1–4 with the parallel crossover forced open.
func TestObserveMaskedMatchesOraclePatch(t *testing.T) {
	for nw := 1; nw <= 4; nw++ {
		rng := rand.New(rand.NewPCG(51, uint64(nw)))
		const d = 61
		m := newModel(rng, d, 3, []float64{9, 4, 1}, 0.05)
		cfg := Config{Dim: d, Components: 3, Extra: 2, Alpha: 1 - 1.0/300, ReorthEvery: 16, Workers: nw}
		a, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewEngine(cfg)
		a.pool.SetMinWork(0)
		b.pool.SetMinWork(0)
		for i := 0; i <= cfg.InitSize+1 || !a.Ready(); i++ {
			x, _ := m.sample()
			a.Observe(x)
			b.Observe(x)
		}
		for step := 0; step < 200; step++ {
			x, _ := m.sample()
			mask := maskObserving(rng, d, 6+rng.IntN(d-7))
			for i, ok := range mask {
				if !ok {
					x[i] = math.NaN()
				}
			}
			ua, errA := a.ObserveMasked(x, mask)
			xp, _, errB := patchLSRef(b.state.Vectors, b.state.Mean, x, mask)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("nw=%d step %d: error %v, oracle %v", nw, step, errA, errB)
			}
			if errA != nil {
				continue
			}
			ub := b.update(xp)
			ub.Patched = ua.Patched
			if ua != ub {
				t.Fatalf("nw=%d step %d: update %+v, oracle %+v", nw, step, ua, ub)
			}
			sa, sb := a.state, b.state
			if !sameBits(sa.Vectors.Data(), sb.Vectors.Data()) || !sameBits(sa.Values, sb.Values) ||
				!sameBits(sa.Mean, sb.Mean) || sa.Sigma2 != sb.Sigma2 {
				t.Fatalf("nw=%d step %d: eigensystem diverged from the oracle path", nw, step)
			}
		}
		a.Close()
		b.Close()
	}
}

// BenchmarkObserveMasked measures a ready engine's gappy Observe at the
// gappy-spectra shape (d = 250, 4+2 components, ~40% of bins missing): the
// workspace patch plus the rank-one update.
func BenchmarkObserveMasked(b *testing.B) {
	rng := rand.New(rand.NewPCG(71, 72))
	const d = 250
	m := newModel(rng, d, 4, []float64{16, 9, 4, 1}, 0.05)
	en, err := NewEngine(Config{Dim: d, Components: 4, Extra: 2, Alpha: 1 - 1.0/4000})
	if err != nil {
		b.Fatal(err)
	}
	xs := m.samples(512)
	for i := 0; !en.Ready(); i++ {
		en.Observe(xs[i%len(xs)])
	}
	masks := make([][]bool, 64)
	for j := range masks {
		masks[j] = randomMask(rng, d, 0.4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := en.ObserveMasked(xs[i%len(xs)], masks[i%len(masks)]); err != nil {
			b.Fatal(err)
		}
	}
}
