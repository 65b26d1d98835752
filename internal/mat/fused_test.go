package mat

import (
	"math/rand/v2"
	"testing"
)

// basisUpdateVecSpanRef is the Dot-based rank-one basis kernel the row-paired
// basisUpdateVecSpan replaced: one Dot call per basis entry. It is the
// exact-order oracle the new kernel must reproduce bit for bit.
func basisUpdateVecSpanRef(vecs, mt *Dense, y, yw []float64, lo, hi int, scratch []float64) {
	k := vecs.cols
	vd := vecs.data
	mtd := mt.data
	tmp := scratch[:k]
	for i := lo; i < hi; i++ {
		vrow := vd[i*k : i*k+k]
		copy(tmp, vrow)
		yi := y[i]
		for j := range vrow {
			vrow[j] = Dot(tmp, mtd[j*k:j*k+k]) + yi*yw[j]
		}
	}
}

// TestBasisUpdateVecMatchesDotOracle pins the rank-one basis kernel to the
// Dot-based oracle: bitwise equal for every k = 1..12 (all four residues of
// the 4-way unroll, both sides of the row pairing), odd and even d, and
// every pool worker count 1–4 with the crossover forced open.
func TestBasisUpdateVecMatchesDotOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 13))
	for k := 1; k <= 12; k++ {
		for _, d := range []int{1, 2, 7, 8, 31, 64, 129, 250} {
			vecs := randDense(rng, d, k)
			mt := randDense(rng, k, k)
			y := make([]float64, d)
			yw := make([]float64, k)
			for i := range y {
				y[i] = rng.NormFloat64()
			}
			for j := range yw {
				yw[j] = rng.NormFloat64()
			}
			want := vecs.Clone()
			basisUpdateVecSpanRef(want, mt, y, yw, 0, d, make([]float64, k))

			// Every span split, including odd starts that shift the pairing.
			for lo := 0; lo <= min(d, 3); lo++ {
				got := vecs.Clone()
				scratch := make([]float64, 2*k)
				basisUpdateVecSpan(got, mt, y, yw, 0, lo, scratch)
				basisUpdateVecSpan(got, mt, y, yw, lo, d, scratch)
				if !bitwiseEqual(got, want) {
					t.Fatalf("k=%d d=%d split=%d: kernel differs from the Dot oracle", k, d, lo)
				}
			}
			for nw := 1; nw <= 4; nw++ {
				p := NewPool(nw)
				p.SetMinWork(0)
				p.Reserve(2 * k)
				got := vecs.Clone()
				p.BasisUpdateVec(got, mt, y, yw)
				p.Close()
				if !bitwiseEqual(got, want) {
					t.Fatalf("k=%d d=%d nw=%d: Pool.BasisUpdateVec differs from the Dot oracle", k, d, nw)
				}
			}
		}
	}
}

// BenchmarkBasisUpdateVec compares the row-paired kernel with the Dot-based
// oracle at the gappy-stream shape (d = 250, k = 6) and a wider basis.
func BenchmarkBasisUpdateVec(b *testing.B) {
	for _, sz := range []struct {
		name string
		d, k int
	}{{"d250k6", 250, 6}, {"d400k12", 400, 12}} {
		rng := rand.New(rand.NewPCG(5, 6))
		vecs := randDense(rng, sz.d, sz.k)
		mt := randDense(rng, sz.k, sz.k)
		y := make([]float64, sz.d)
		yw := make([]float64, sz.k)
		scratch := make([]float64, 2*sz.k)
		b.Run(sz.name+"/paired", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				basisUpdateVecSpan(vecs, mt, y, yw, 0, sz.d, scratch)
			}
		})
		b.Run(sz.name+"/dot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				basisUpdateVecSpanRef(vecs, mt, y, yw, 0, sz.d, scratch)
			}
		})
	}
}
