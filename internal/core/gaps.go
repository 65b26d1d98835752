package core

import (
	"errors"
	"fmt"
	"math"

	"streampca/internal/mat"
)

// ObserveMasked absorbs an observation with missing entries (§II-D).
// mask[i] = true means x[i] was observed; masked entries of x are ignored
// (they may be NaN). The gaps are patched by the unbiased reconstruction of
// Connolly & Szalay: coefficients are fitted on the observed bins against
// the current (p+q)-component basis, missing bins are filled with the
// reconstruction, and the patched vector flows through the standard update.
//
// Because patching uses all p+q components while the robust residual is
// taken against the first p only, the residual in each patched bin is the
// difference between the two truncated reconstructions — exactly the
// higher-order correction the paper prescribes, so spectra with many empty
// pixels do not receive artificially inflated weights (set Config.Extra > 0
// to enable it; with Extra = 0 patched bins contribute zero residual).
//
// During warm-up, when no basis exists yet, missing entries are filled with
// the per-bin running mean of the observed values so the initial batch
// decomposition stays unbiased in location.
func (en *Engine) ObserveMasked(x []float64, mask []bool) (Update, error) {
	d := en.cfg.Dim
	if len(x) != d || len(mask) != d {
		return Update{}, fmt.Errorf("core: masked observation length %d/%d, want %d", len(x), len(mask), d)
	}
	nObs := 0
	for i, ok := range mask {
		if !ok {
			continue
		}
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return Update{}, errors.New("core: non-finite value in observed bin")
		}
		nObs++
	}
	if nObs == 0 {
		return Update{}, errors.New("core: observation is entirely masked")
	}
	if nObs == d {
		return en.Observe(x)
	}
	k := en.k
	if nObs <= k {
		return Update{}, fmt.Errorf("core: only %d observed bins; need more than %d to fit the basis", nObs, k)
	}

	if !en.ready {
		xp := en.fillWithBinMeans(x, mask)
		u, err := en.bufferWarmupMasked(xp, mask)
		u.Patched = d - nObs
		return u, err
	}

	// Steady state: patch into the engine's scratch (no allocations) and
	// feed the patched row straight to the update.
	ps := en.ws.patch
	if !ps.patch(en.state.Vectors, en.state.Mean, x, mask) {
		return Update{}, errCholesky
	}
	u := en.update(ps.patched)
	u.Patched = d - nObs
	return u, nil
}

// PatchVector returns a copy of x with masked entries replaced by the
// current best reconstruction, together with the fitted coefficients. The
// engine must be initialized.
func (en *Engine) PatchVector(x []float64, mask []bool) (patched, coef []float64, err error) {
	if !en.ready {
		return nil, nil, errors.New("core: engine not initialized yet")
	}
	return patchLS(en.state.Vectors, en.state.Mean, x, mask)
}

// patchLS fills the masked entries of x by least squares against basis:
// coefficients solve the normal equations restricted to the observed rows,
// (E_obsᵀ·E_obs)·c = E_obsᵀ·(x−µ)_obs, and masked bins take µ + E·c. It is
// the allocating wrapper of patchScratch.patch; both results are fresh.
func patchLS(basis *mat.Dense, mean, x []float64, mask []bool) (patched, coef []float64, err error) {
	ps := newPatchScratch(basis.Dims())
	if !ps.patch(basis, mean, x, mask) {
		return nil, nil, errCholesky
	}
	return ps.patched, ps.coef, nil
}

// patchScratch holds every buffer of one least-squares gap patch for a d×k
// basis. The engine workspace owns one so the steady-state ObserveMasked
// patches without allocating; patchLS builds a fresh one per call.
type patchScratch struct {
	gram []float64 // k×k observed-row Gram E_obsᵀ·E_obs, row-major
	chol []float64 // k×k Cholesky factor of gram (lower triangle)
	rhs  []float64 // E_obsᵀ·(x−µ)_obs (length k)
	fwd  []float64 // forward-substitution result (length k)
	coef []float64 // fitted coefficients (length k)
	obs  []int     // indices of the observed bins (length d)
	// patched is the output row: x on observed bins, µ + E·coef elsewhere
	// (length d).
	patched []float64
}

func newPatchScratch(d, k int) *patchScratch {
	return &patchScratch{
		gram:    make([]float64, k*k),
		chol:    make([]float64, k*k),
		rhs:     make([]float64, k),
		fwd:     make([]float64, k),
		coef:    make([]float64, k),
		obs:     make([]int, d),
		patched: make([]float64, d),
	}
}

// patch fills ps.patched and ps.coef from x, mask and the d×k basis with
// mean µ, reporting false when the observed-row Gram cannot be factored
// (solveSPDInto). It folds observed rows into the Gram and right-hand side
// four at a time — one memory read-modify-write per entry per four rows —
// but every entry still receives its per-row terms in ascending row order
// from +0, so the result is bitwise that of a row-at-a-time accumulation
// (TestPatchMatchesAllocatingOracle). Zero basis entries need no skip: with
// finite operands, a zero product added to a sum that started at +0 never
// changes its bits.
//
//streampca:noalloc
func (ps *patchScratch) patch(basis *mat.Dense, mean, x []float64, mask []bool) bool {
	d, k := basis.Dims()
	bd := basis.Data()
	g := ps.gram
	b := ps.rhs
	for i := range g {
		g[i] = 0
	}
	for i := range b {
		b[i] = 0
	}
	n := 0
	for i, ok := range mask[:d] {
		if ok {
			ps.obs[n] = i
			n++
		}
	}
	obs := ps.obs[:n]
	p := 0
	for ; p+3 < len(obs); p += 4 {
		i0, i1, i2, i3 := obs[p], obs[p+1], obs[p+2], obs[p+3]
		r0 := bd[i0*k : i0*k+k]
		r1 := bd[i1*k : i1*k+k][:len(r0)]
		r2 := bd[i2*k : i2*k+k][:len(r0)]
		r3 := bd[i3*k : i3*k+k][:len(r0)]
		y0 := x[i0] - mean[i0]
		y1 := x[i1] - mean[i1]
		y2 := x[i2] - mean[i2]
		y3 := x[i3] - mean[i3]
		for a, r0a := range r0 {
			r1a, r2a, r3a := r1[a], r2[a], r3[a]
			b[a] = b[a] + r0a*y0 + r1a*y1 + r2a*y2 + r3a*y3
			ga := g[a*k+a : a*k+k]
			s0 := r0[a:]
			s1 := r1[a:][:len(s0)]
			s2 := r2[a:][:len(s0)]
			s3 := r3[a:][:len(s0)]
			ga = ga[:len(s0)]
			for c, v := range s0 {
				ga[c] = ga[c] + r0a*v + r1a*s1[c] + r2a*s2[c] + r3a*s3[c]
			}
		}
	}
	for ; p < len(obs); p++ {
		i0 := obs[p]
		r0 := bd[i0*k : i0*k+k]
		y0 := x[i0] - mean[i0]
		for a, r0a := range r0 {
			b[a] += r0a * y0
			ga := g[a*k+a : a*k+k]
			for c, v := range r0[a:] {
				ga[c] += r0a * v
			}
		}
	}
	for a := 0; a < k; a++ {
		for c := a + 1; c < k; c++ {
			g[c*k+a] = g[a*k+c]
		}
	}
	coef := ps.coef
	if !solveSPDInto(coef, g, b, ps.chol, ps.fwd) {
		return false
	}
	patched := ps.patched
	for i := 0; i < d; i++ {
		if mask[i] {
			patched[i] = x[i]
			continue
		}
		v := mean[i]
		row := bd[i*k : i*k+k]
		for a, ra := range row {
			v += ra * coef[a]
		}
		patched[i] = v
	}
	return true
}

// fillWithBinMeans replaces masked entries with the running per-bin mean of
// everything observed so far (warm-up only). Bins never observed fall back
// to 0.
func (en *Engine) fillWithBinMeans(x []float64, mask []bool) []float64 {
	d := en.cfg.Dim
	if en.binSum == nil {
		en.binSum = make([]float64, d)
		en.binCount = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		if mask[i] {
			en.binSum[i] += x[i]
			en.binCount[i]++
		}
	}
	xp := make([]float64, d)
	for i := 0; i < d; i++ {
		if mask[i] {
			xp[i] = x[i]
		} else if en.binCount[i] > 0 {
			xp[i] = en.binSum[i] / en.binCount[i]
		}
	}
	return xp
}
