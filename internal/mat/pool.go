package mat

// Persistent worker pool for the d-proportional kernels of the streaming PCA
// hot path. A Pool is owned by a single engine (single-goroutine dispatch,
// like the engine itself): workers are spawned once at construction and park
// on per-worker span channels, so a kernel dispatch is one channel send per
// worker and one receive per completion — no per-call goroutine spawn, no
// closures, no heap traffic. Every kernel partitions its OUTPUT elements
// across spans, and every output element is computed with the same
// instruction sequence regardless of the partition, so results are bitwise
// identical for any worker count — including the serial fallback. That
// determinism contract is what lets the crossover model flip between serial
// and parallel execution per call without perturbing the estimator.

// kernelKind selects the span kernel a dispatched job runs. An enum (not a
// closure) keeps the dispatch allocation-free: captured closures would heap-
// allocate on every call.
type kernelKind uint8

const (
	kMul kernelKind = iota
	kAddMulTA
	kSyrk
	kBasisVec
	kCenter
)

// span is a half-open output range [lo, hi) in the units of the current job
// (rows for the matrix kernels, panels for the fused center/project pass).
type span struct{ lo, hi int }

// Pool runs mat kernels across a fixed set of parked worker goroutines.
// The zero Pool and a nil *Pool are valid and always run serially. A Pool is
// not safe for concurrent dispatch: one owner, one kernel at a time — the
// same contract as the engine workspace it serves.
type Pool struct {
	nw int // participants: the caller plus len(ch) parked workers

	// minWork is the multiply-add count below which dispatch is not worth
	// the handoff, measured at construction (see calibrate.go). The parallel
	// branch is taken only above it.
	minWork int

	ch     []chan span   // one parked worker per channel
	done   chan struct{} // completion signals, buffered to len(ch)
	closed bool

	// scratch[i] is participant i's private buffer (0 = the caller); sized
	// by Reserve before the first dispatch that needs it.
	scratch [][]float64

	// Current job operands, written by the dispatching owner before the span
	// sends (the channel send is the happens-before edge workers read them
	// through). Field names are j-prefixed to keep the job state visually
	// separate from the pool machinery.
	kind               kernelKind
	jDst, jA, jB, jMt  *Dense
	jR                 int
	jBlocked           bool
	jX, jMean, jY, jYw []float64
	jPart              []float64
}

// NewPool returns a pool with the given number of participants; workers <= 0
// selects GOMAXPROCS. A pool of one spawns no goroutines and always runs
// serially. Pools with workers >= 2 must be Closed when the owner is done
// with them or the parked goroutines leak.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = gomaxprocs()
	}
	p := &Pool{nw: workers, minWork: int(^uint(0) >> 1)}
	p.scratch = make([][]float64, workers)
	if workers < 2 {
		return p
	}
	p.ch = make([]chan span, workers-1)
	p.done = make(chan struct{}, workers-1)
	for i := range p.ch {
		p.ch[i] = make(chan span, 1)
		go p.worker(i)
	}
	p.minWork = calibrateMinWork(p)
	return p
}

// Workers returns the number of participants (caller included).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.nw
}

// MinWork returns the calibrated multiply-add crossover below which every
// dispatch runs serially.
func (p *Pool) MinWork() int {
	if p == nil {
		return int(^uint(0) >> 1)
	}
	return p.minWork
}

// SetMinWork overrides the calibrated crossover (tests force the parallel
// branch with 0). It must not race a dispatch.
func (p *Pool) SetMinWork(w int) {
	if p != nil {
		p.minWork = w
	}
}

// Reserve grows every participant's private scratch buffer to at least n
// floats. Kernel methods that need scratch (BasisUpdateVec: 2k floats)
// require a prior Reserve; sizing up front is what keeps the dispatch itself
// allocation-free.
func (p *Pool) Reserve(n int) {
	if p == nil {
		return
	}
	for i := range p.scratch {
		if len(p.scratch[i]) < n {
			p.scratch[i] = make([]float64, n)
		}
	}
}

// Close releases the parked workers. Idempotent; the pool degrades to the
// serial path afterwards, so late callers still get correct results.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.ch {
		close(ch)
	}
	p.ch = nil
	p.nw = 1
	p.minWork = int(^uint(0) >> 1)
}

// worker parks on its span channel until Close; each received span is one
// slice of the owner's current job.
func (p *Pool) worker(i int) {
	for sp := range p.ch[i] {
		p.runSpan(sp, p.scratch[i+1])
		p.done <- struct{}{}
	}
}

// runSpan executes the current job over one output span with the given
// participant-private scratch.
//
//streampca:noalloc
func (p *Pool) runSpan(sp span, scratch []float64) {
	switch p.kind {
	case kMul:
		if p.jBlocked {
			mulBlocked(p.jDst, p.jA, p.jB, sp.lo, sp.hi)
		} else {
			mulRows(p.jDst, p.jA, p.jB, sp.lo, sp.hi)
		}
	case kAddMulTA:
		addMulTARowsSpan(p.jDst, p.jA, p.jB, p.jR, sp.lo, sp.hi)
	case kSyrk:
		syrkRowsSpan(p.jDst, p.jA, p.jR, sp.lo, sp.hi)
	case kBasisVec:
		basisUpdateVecSpan(p.jDst, p.jMt, p.jY, p.jYw, sp.lo, sp.hi, scratch)
	case kCenter:
		centerProjectSpan(p.jY, p.jX, p.jMean, p.jDst, p.jPart, sp.lo, sp.hi)
	}
}

// dispatch splits [0, n) into per-participant spans whose boundaries are
// multiples of align, hands all but the first to the parked workers, runs
// the first span on the calling goroutine, and waits for every handoff to
// complete. It must only be called with nw >= 2 and n >= 1.
//
//streampca:noalloc
func (p *Pool) dispatch(n, align int) {
	chunk := (n + p.nw - 1) / p.nw
	if align > 1 && chunk%align != 0 {
		chunk += align - chunk%align
	}
	sent := 0
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		p.ch[sent] <- span{lo, hi}
		sent++
	}
	first := chunk
	if first > n {
		first = n
	}
	p.runSpan(span{0, first}, p.scratch[0])
	for i := 0; i < sent; i++ {
		<-p.done
	}
}

// Mul computes dst = a·b like Mul, splitting destination rows across the
// pool when the product is past the crossover. Row spans stay aligned to the
// blocked kernel's row-pair tile, so the result is bitwise identical to the
// serial Mul for every worker count.
//
//streampca:noalloc
func (p *Pool) Mul(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic("mat: Pool.Mul inner dimension mismatch")
	}
	//streamvet:ignore noalloc inlined prepDst nil-dst fallback; steady-state callers pass a preallocated dst so the branch never runs
	dst = prepDst(dst, a.rows, b.cols)
	work := a.rows * a.cols * b.cols
	blocked := useBlocked(a.rows, a.cols, b.cols)
	if p == nil || p.nw < 2 || work < p.minWork || a.rows < 2*p.nw {
		if blocked {
			mulBlocked(dst, a, b, 0, a.rows)
		} else {
			mulRows(dst, a, b, 0, a.rows)
		}
		return dst
	}
	p.kind = kMul
	p.jDst, p.jA, p.jB = dst, a, b
	p.jBlocked = blocked
	align := 1
	if blocked {
		align = 2 // preserve the serial kernel's (even, odd) row pairing
	}
	p.dispatch(a.rows, align)
	return dst
}

// AddMulTARows accumulates dst += Aᵀ·B over the first r rows of a and b like
// the package-level AddMulTARows, splitting destination rows (a's columns)
// across the pool. Per destination row the reduction order over the r source
// rows is fixed, so the result is bitwise partition-independent.
//
//streampca:noalloc
func (p *Pool) AddMulTARows(dst, a, b *Dense, r int) {
	if r < 0 || r > a.rows || r > b.rows {
		panic("mat: Pool.AddMulTARows row count out of range")
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic("mat: Pool.AddMulTARows shape mismatch")
	}
	work := r * a.cols * b.cols
	if p == nil || p.nw < 2 || work < p.minWork || a.cols < 2*p.nw {
		addMulTARowsSpan(dst, a, b, r, 0, a.cols)
		return
	}
	p.kind = kAddMulTA
	p.jDst, p.jA, p.jB = dst, a, b
	p.jR = r
	p.dispatch(a.cols, 1)
}

// SyrkRows computes the leading r×r block of dst = A·Aᵀ like the
// package-level SyrkRows, splitting the triangle's rows across the pool.
// Every entry is an independent Dot, so any partition is bitwise identical.
//
//streampca:noalloc
func (p *Pool) SyrkRows(dst, a *Dense, r int) {
	if r < 0 || r > a.rows {
		panic("mat: Pool.SyrkRows row count out of range")
	}
	if dst.rows < r || dst.cols < r {
		panic("mat: Pool.SyrkRows destination too small")
	}
	work := r * (r + 1) / 2 * a.cols
	if p == nil || p.nw < 2 || work < p.minWork || r < 2*p.nw {
		syrkRowsSpan(dst, a, r, 0, r)
		return
	}
	p.kind = kSyrk
	p.jDst, p.jA = dst, a
	p.jR = r
	p.dispatch(r, 1)
}

// BasisUpdateVec applies the fused in-place rank-one basis update
//
//	E ← E·M + y·ywᵀ
//
// row-wise: vecs is the d×k basis E (updated in place), mt the k×k
// TRANSPOSED map Mᵀ (mt[j][l] = M[l][j]), y the centered vector and yw its
// per-column coefficients. The per-row arithmetic matches the rank-one
// engine rebuild exactly. Requires Reserve(2k) scratch: the kernel updates
// basis rows in pairs.
//
//streampca:noalloc
func (p *Pool) BasisUpdateVec(vecs, mt *Dense, y, yw []float64) {
	k := vecs.cols
	d := vecs.rows
	if mt.rows != k || mt.cols != k {
		panic("mat: Pool.BasisUpdateVec map shape mismatch")
	}
	if len(y) != d || len(yw) != k {
		panic("mat: Pool.BasisUpdateVec vector length mismatch")
	}
	work := d * k * (k + 1)
	if p == nil || p.nw < 2 || work < p.minWork || d < 2*p.nw {
		var scratch []float64
		if p != nil && len(p.scratch) > 0 {
			scratch = p.scratch[0]
		}
		if len(scratch) < 2*k {
			panic("mat: Pool.BasisUpdateVec scratch not reserved")
		}
		basisUpdateVecSpan(vecs, mt, y, yw, 0, d, scratch)
		return
	}
	p.kind = kBasisVec
	p.jDst, p.jMt = vecs, mt
	p.jY, p.jYw = y, yw
	p.dispatch(d, 1)
}

// CenterProject runs the fused center/project pass y = x − mean,
// coef = Eᵀy, returning ‖y‖². The reduction is panel-deterministic: rows are
// cut into fixed cpPanel-sized panels, each panel accumulates its k+1
// partial sums into part (length ≥ CenterProjectPanels(d)·(k+1)), and the
// partials are folded into coef in panel order — the SAME chunked reduction
// whether panels ran serially or across the pool, so the result is bitwise
// partition-independent. coef is overwritten.
//
//streampca:noalloc
func (p *Pool) CenterProject(y, coef, x, mean []float64, vecs *Dense, part []float64) float64 {
	d := vecs.rows
	k := vecs.cols
	if len(x) != d || len(y) != d || len(mean) != d || len(coef) != k {
		panic("mat: Pool.CenterProject length mismatch")
	}
	np := CenterProjectPanels(d)
	if len(part) < np*(k+1) {
		panic("mat: Pool.CenterProject partial buffer too small")
	}
	work := d * (k + 2)
	if p == nil || p.nw < 2 || work < p.minWork || np < 2 {
		centerProjectSpan(y, x, mean, vecs, part, 0, np)
	} else {
		p.kind = kCenter
		p.jY, p.jX, p.jMean = y, x, mean
		p.jDst = vecs
		p.jPart = part
		p.dispatch(np, 1)
	}
	// Fold the panel partials in panel order (the canonical reduction).
	for j := range coef {
		coef[j] = 0
	}
	var ny2 float64
	for pi := 0; pi < np; pi++ {
		pp := part[pi*(k+1) : pi*(k+1)+k+1]
		for j := range coef {
			coef[j] += pp[j]
		}
		ny2 += pp[k]
	}
	return ny2
}
