package mat

// Fused span kernels for the streaming PCA hot path. These are the
// output-partitioned bodies the worker Pool dispatches; each computes a
// half-open output range with a fixed per-element instruction sequence so
// any partition of the output produces bitwise-identical results (the
// determinism contract of pool.go).

// cpPanel is the row granularity of the fused center/project reduction: the
// d-dimensional accumulation of coef = Eᵀy is cut into fixed panels of this
// many rows, each reduced independently into k+1 partial sums and folded in
// panel order. Panels are the unit of parallelism AND the canonical serial
// reduction, so worker count never changes the float result. 256 rows × k
// columns keeps a panel's basis slice L1-resident while giving a d=512
// stream two panels to split.
const cpPanel = 256

// CenterProjectPanels returns the number of reduction panels the fused
// center/project pass uses for dimension d; workspace owners size their
// partial-sum buffer as CenterProjectPanels(d)·(k+1).
func CenterProjectPanels(d int) int {
	return (d + cpPanel - 1) / cpPanel
}

// centerProjectSpan computes panels [p0, p1) of the fused center/project
// pass: for each row i of the panel, y[i] = x[i] − mean[i], and the panel's
// partial sums part[pi*(k+1) : pi*(k+1)+k] += y[i]·E[i,:] with ‖y‖²'s panel
// share at part[pi*(k+1)+k]. Rows are consumed in pairs so each pass over
// the k partial accumulators folds two basis rows — half the read-modify-
// write traffic of the row-at-a-time loop.
//
//streampca:noalloc
func centerProjectSpan(y, x, mean []float64, vecs *Dense, part []float64, p0, p1 int) {
	d := vecs.rows
	k := vecs.cols
	vd := vecs.data
	for pi := p0; pi < p1; pi++ {
		lo := pi * cpPanel
		hi := lo + cpPanel
		if hi > d {
			hi = d
		}
		pp := part[pi*(k+1) : pi*(k+1)+k+1]
		for j := range pp {
			pp[j] = 0
		}
		pc := pp[:k]
		var ny2 float64
		i := lo
		for ; i+1 < hi; i += 2 {
			y0 := x[i] - mean[i]
			y1 := x[i+1] - mean[i+1]
			y[i] = y0
			y[i+1] = y1
			ny2 += y0*y0 + y1*y1
			v0 := vd[i*k : i*k+k]
			v1 := vd[(i+1)*k : (i+1)*k+k]
			for j, v0j := range v0 {
				pc[j] += y0*v0j + y1*v1[j]
			}
		}
		for ; i < hi; i++ {
			yi := x[i] - mean[i]
			y[i] = yi
			ny2 += yi * yi
			vrow := vd[i*k : i*k+k]
			for j, vij := range vrow {
				pc[j] += yi * vij
			}
		}
		pp[k] = ny2
	}
}

// basisUpdateVecSpan is the rank-one body: rows [lo, hi) of
// E ← E·M + y·ywᵀ. Each new entry is the k-long dot of the old basis row
// with Mᵀ's row j, plus yᵢ·yw[j]. The dot is inlined and keeps Dot's exact
// per-element order — four partial sums over l ≡ 0..3 (mod 4), the tail
// folded into the first, combined as (s0+s1)+(s2+s3) — so the result is
// bitwise identical to a Dot call per entry
// (TestBasisUpdateVecMatchesDotOracle). Rows are consumed in pairs:
// each pass over Mᵀ's row j feeds both rows' dots, halving the Mᵀ traffic
// and the per-entry loop overhead. scratch needs 2k floats (the two old
// rows).
//
//streampca:noalloc
func basisUpdateVecSpan(vecs, mt *Dense, y, yw []float64, lo, hi int, scratch []float64) {
	k := vecs.cols
	k4 := k &^ 3
	vd := vecs.data
	mtd := mt.data
	yw = yw[:k]
	t0 := scratch[:k]
	t1 := scratch[k : 2*k]
	i := lo
	for ; i+1 < hi; i += 2 {
		v0 := vd[i*k : i*k+k]
		v1 := vd[(i+1)*k : (i+1)*k+k]
		copy(t0, v0)
		copy(t1, v1)
		y0, y1 := y[i], y[i+1]
		for j, ywj := range yw {
			m := mtd[j*k : j*k+k]
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			l := 0
			for ; l < k4; l += 4 {
				ml := m[l : l+4 : l+4]
				p := t0[l : l+4 : l+4]
				q := t1[l : l+4 : l+4]
				a0 += p[0] * ml[0]
				a1 += p[1] * ml[1]
				a2 += p[2] * ml[2]
				a3 += p[3] * ml[3]
				b0 += q[0] * ml[0]
				b1 += q[1] * ml[1]
				b2 += q[2] * ml[2]
				b3 += q[3] * ml[3]
			}
			for ; l < k; l++ {
				a0 += t0[l] * m[l]
				b0 += t1[l] * m[l]
			}
			v0[j] = (a0 + a1) + (a2 + a3) + y0*ywj
			v1[j] = (b0 + b1) + (b2 + b3) + y1*ywj
		}
	}
	if i < hi {
		v0 := vd[i*k : i*k+k]
		copy(t0, v0)
		y0 := y[i]
		for j, ywj := range yw {
			m := mtd[j*k : j*k+k]
			var a0, a1, a2, a3 float64
			l := 0
			for ; l < k4; l += 4 {
				ml := m[l : l+4 : l+4]
				p := t0[l : l+4 : l+4]
				a0 += p[0] * ml[0]
				a1 += p[1] * ml[1]
				a2 += p[2] * ml[2]
				a3 += p[3] * ml[3]
			}
			for ; l < k; l++ {
				a0 += t0[l] * m[l]
			}
			v0[j] = (a0 + a1) + (a2 + a3) + y0*ywj
		}
	}
}

// addMulTARowsSpan accumulates destination rows [ilo, ihi) of
// dst += Aᵀ·B over the first r rows of a and b — AddMulTARows restricted to
// an output-row range, same 4-way unrolled reduction order per row.
//
//streampca:noalloc
func addMulTARowsSpan(dst, a, b *Dense, r, ilo, ihi int) {
	m, n := a.cols, b.cols
	k := 0
	for ; k+3 < r; k += 4 {
		ak0 := a.data[k*m : (k+1)*m]
		ak1 := a.data[(k+1)*m : (k+2)*m]
		ak2 := a.data[(k+2)*m : (k+3)*m]
		ak3 := a.data[(k+3)*m : (k+4)*m]
		bk0 := b.data[k*n : (k+1)*n]
		bk1 := b.data[(k+1)*n : (k+2)*n]
		bk2 := b.data[(k+2)*n : (k+3)*n]
		bk3 := b.data[(k+3)*n : (k+4)*n]
		for i := ilo; i < ihi; i++ {
			v0, v1, v2, v3 := ak0[i], ak1[i], ak2[i], ak3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			di := dst.data[i*n : (i+1)*n]
			for j, d := range di {
				di[j] = d + v0*bk0[j] + v1*bk1[j] + v2*bk2[j] + v3*bk3[j]
			}
		}
	}
	for ; k < r; k++ {
		ak := a.data[k*m : (k+1)*m]
		bk := b.data[k*n : (k+1)*n]
		for i := ilo; i < ihi; i++ {
			aki := ak[i]
			if aki == 0 {
				continue
			}
			Axpy(aki, bk, dst.data[i*n:(i+1)*n])
		}
	}
}

// syrkRowsSpan computes rows [lo, hi) of the leading r×r block of
// dst = A·Aᵀ (upper entries plus their mirrors); every entry is one
// independent Dot, so any row partition is bitwise identical. The j loop is
// 2-way unrolled: two dots per pass share the loaded a-row stream.
//
//streampca:noalloc
func syrkRowsSpan(dst, a *Dense, r, lo, hi int) {
	n := dst.cols
	kk := a.cols
	for i := lo; i < hi; i++ {
		ai := a.data[i*kk : (i+1)*kk]
		di := dst.data[i*n : i*n+r]
		j := i
		for ; j+1 < r; j += 2 {
			aj0 := a.data[j*kk : (j+1)*kk]
			aj1 := a.data[(j+1)*kk : (j+2)*kk]
			var s0a, s0b, s1a, s1b float64
			m := 0
			for ; m+1 < kk; m += 2 {
				v0, v1 := ai[m], ai[m+1]
				s0a += v0 * aj0[m]
				s0b += v1 * aj0[m+1]
				s1a += v0 * aj1[m]
				s1b += v1 * aj1[m+1]
			}
			if m < kk {
				v := ai[m]
				s0a += v * aj0[m]
				s1a += v * aj1[m]
			}
			v0 := s0a + s0b
			v1 := s1a + s1b
			di[j] = v0
			di[j+1] = v1
			dst.data[j*n+i] = v0
			dst.data[(j+1)*n+i] = v1
		}
		if j < r {
			v := Dot(ai, a.data[j*kk:(j+1)*kk])
			di[j] = v
			dst.data[j*n+i] = v
		}
	}
}
