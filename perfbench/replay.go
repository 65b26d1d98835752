package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"time"

	"streampca/internal/core"
	"streampca/internal/eig"
	"streampca/internal/ingest"
	"streampca/internal/mat"
	"streampca/internal/stream"
	"streampca/internal/wire"
)

// The traced replay feeds each round a window of replayRows ring rows
// through every layer. maxRounds bounds the spans kept in memory; the rest
// of the time budget goes to untraced sessions.
const (
	replayRows  = 1024
	maxRounds   = 8
	streamMsgs  = 8192 // messages per stream dispatch replay (tuple transport)
	streamFrame = 512  // frames per stream dispatch replay (batched transport)
)

// traced runs the per-layer mode: replay rounds with spans (at most half the
// budget), then untraced sessions for the Result counters and the CPU per
// tuple the ledger is compared against.
func traced(ctx context.Context, cfg runConfig, in *inputs, fp fingerprint) (map[string]float64, []session, string, error) {
	start := time.Now()
	rp, err := newReplay(cfg.w, in, cfg.seed)
	if err != nil {
		return nil, nil, "", err
	}
	defer rp.close()
	rec := newRecorder()
	for r := 0; r < maxRounds && (r == 0 || time.Since(start) < cfg.budget/2); r++ {
		if err := rp.round(rec, r); err != nil {
			return nil, nil, "", fmt.Errorf("replay round %d: %w", r, err)
		}
	}
	sessions := runSessions(ctx, cfg.w, in, cfg.seed, cfg.budget-time.Since(start), 1)
	vals := sessionCounters(cfg.w, sessions)
	for name, xs := range rp.samples {
		vals[name] = median(xs)
	}
	vals["mat.block_width"] = float64(fp.BlockWidth)
	vals["mat.pool_min_work"] = float64(fp.PoolMinWork)
	vals["mat.block_flop_per_row"] = blockFlopPerRow(cfg.w.engine.Dim, rp.k, fp.BlockWidth)
	if cpt := vals["cpu_ns_per_tuple"]; cpt > 0 {
		vals["trace.coverage_frac"] = ledgerNsPerTuple(cfg.w, vals) / cpt
	}
	path, err := writeSpans(cfg.outDir, cfg.w.name+".spans.jsonl", rec.spans)
	return vals, sessions, path, err
}

// ledgerNsPerTuple sums the replayed per-tuple self times of the layers the
// workload's end-to-end run goes through: transport dispatch, the engine
// path (block or scalar), warm-up amortized over a session's tuples, and
// ingest or wire where the workload uses them.
func ledgerNsPerTuple(w workload, v map[string]float64) float64 {
	perMsg := 1.0
	if w.batch > 1 {
		perMsg = float64(w.batch)
	}
	ns := v["stream.dispatch_ns_per_msg"] / perMsg
	ns += v["core.warmup_ms"] * 1e6 * numEngines / float64(w.sessionTuples)
	if w.batch > 1 {
		ns += v["core.block_ns_per_row"]
	} else {
		ns += v["core.observe_ns_per_row"]
	}
	if w.gappy {
		ns += v["ingest.binary_ns_per_row"]
	}
	if w.wire {
		ns += (v["wire.encode_ns_per_frame"] + v["wire.decode_ns_per_frame"]) / perMsg
	}
	return ns
}

// blockFlopPerRow is the floating-point work of one row absorbed by the
// rank-c block update at width c: the fused center/project pass, the
// row's share of the Y·Yᵀ triangle, of the E·M basis product and of the
// Yᵀ·W panel (two flops per multiply-add each), plus its share of the
// (k+c) tridiagonal eigensolve (≈ 9n³ flops for tred2 + tql2 with vectors).
func blockFlopPerRow(d, k, c int) float64 {
	fd, fk, fc := float64(d), float64(k), float64(c)
	n := fk + fc
	ma := fd*(fk+1) + fd*(fc+1)/2 + fd*fk*fk/fc + fd*fk
	return 2*ma + 9*n*n*n/fc
}

// sessionCounters reduces the untraced sessions of a traced run to the
// per-layer metrics pipeline.Result and the runtime already count. Counters
// of a layer a workload does not run read 0: the wire.* counters on the
// in-process workloads, and stream.engine_busy_frac over the wire, whose
// engine operators run in the workers.
func sessionCounters(w workload, sessions []session) map[string]float64 {
	v := make(map[string]float64)
	var tuples, processed, outliers int64
	var alloc uint64
	var cpu, self, wall time.Duration
	var splitBusy, engineBusy time.Duration
	var bytesSent, writevs, frames, reconnects int64
	var gcs, snaps, merges, stalls []float64
	for _, s := range sessions {
		if s.res == nil {
			continue
		}
		r := s.res
		tuples += r.TuplesIn
		processed += s.processed
		alloc += s.allocBytes
		cpu += s.cpu()
		self += s.selfCPU
		wall += s.wall
		gcs = append(gcs, float64(s.gcCycles))
		var sn, mg, st int64
		for _, e := range r.Engines {
			outliers += e.Outliers
			sn += e.SnapshotsSent
			mg += e.MergesApplied
		}
		for _, m := range r.Metrics {
			switch {
			case m.Name == "split":
				splitBusy += m.Busy
			case strings.HasPrefix(m.Name, "pca"):
				engineBusy += m.Busy
			}
		}
		for _, e := range r.Wire {
			bytesSent += e.BytesSent
			writevs += e.Writevs
			frames += e.FramesSent
			reconnects += e.Reconnects
			st += e.CorkStalls
		}
		snaps = append(snaps, float64(sn))
		merges = append(merges, float64(mg))
		stalls = append(stalls, float64(st))
	}
	if tuples == 0 {
		return v
	}
	ft := float64(tuples)
	v["cpu_ns_per_tuple"] = float64(cpu.Nanoseconds()) / ft
	v["pipeline.alloc_bytes_per_tuple"] = float64(alloc) / ft
	v["pipeline.gc_cycles"] = median(gcs)
	v["pipeline.snapshots_sent"] = median(snaps)
	v["pipeline.merges_applied"] = median(merges)
	if processed > 0 {
		v["pipeline.outlier_frac"] = float64(outliers) / float64(processed)
	}
	v["stream.split_busy_ns_per_tuple"] = float64(splitBusy.Nanoseconds()) / ft
	if wall > 0 {
		v["stream.engine_busy_frac"] = engineBusy.Seconds() / (wall.Seconds() * numEngines)
	}
	if w.wire {
		if writevs > 0 {
			v["wire.bytes_per_writev"] = float64(bytesSent) / float64(writevs)
			v["wire.frames_per_writev"] = float64(frames) / float64(writevs)
		}
		v["wire.cork_stalls"] = median(stalls)
		v["wire.reconnects"] = float64(reconnects)
		if cpu > 0 {
			v["wire.coordinator_cpu_frac"] = self.Seconds() / cpu.Seconds()
		}
	}
	return v
}

// replay holds the per-process state of the traced replay.
type replay struct {
	w       workload
	cfg     core.Config // w.engine with defaults filled in
	in      *inputs
	seed    uint64
	d, k, c int
	pool    *mat.Pool
	// client→server is a loopback TCP connection the wire replay encodes
	// into; the server side is drained into rbuf and decoded from there, so
	// decode time excludes waiting on the socket.
	client, server net.Conn
	enc            *wire.Encoder
	rbuf           []byte
	samples        map[string][]float64
}

func newReplay(w workload, in *inputs, seed uint64) (*replay, error) {
	cfg := w.engine
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := cfg.Components + cfg.Extra
	rp := &replay{
		w: w, cfg: cfg, in: in, seed: seed, d: cfg.Dim, k: k,
		c:       mat.BlockSize(cfg.Dim, k, blockMax),
		pool:    mat.NewPool(0),
		samples: make(map[string][]float64),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rp.close()
		return nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	rp.client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // unblocks Accept
	}
	rp.server = <-accepted
	if err != nil || rp.server == nil {
		rp.close()
		return nil, fmt.Errorf("loopback connection: %v", err)
	}
	rp.enc = wire.NewEncoder(rp.client, false)
	return rp, nil
}

func (rp *replay) close() {
	rp.pool.Close()
	for _, c := range []net.Conn{rp.client, rp.server} {
		if c != nil {
			c.Close()
		}
	}
}

func (rp *replay) sample(name string, v float64) {
	rp.samples[name] = append(rp.samples[name], v)
}

// window returns round r's rows and masks.
func (rp *replay) window(r int) ([][]float64, [][]bool) {
	rows := make([][]float64, replayRows)
	masks := make([][]bool, replayRows)
	for i := range rows {
		rows[i], masks[i] = rp.in.row((r*replayRows+i)%rp.in.len(rp.d), rp.d)
	}
	return rows, masks
}

// round replays one window through every layer under a root span.
func (rp *replay) round(rec *recorder, r int) error {
	rows, masks := rp.window(r)
	root := rec.begin("replay")
	defer rec.end(root)
	if err := rp.ingest(rec, rows); err != nil {
		return err
	}
	if err := rp.stream(rec, rows, masks); err != nil {
		return err
	}
	st, err := rp.core(rec, rows, masks)
	if err != nil {
		return err
	}
	patched := patchRows(rows, masks, st.Mean)
	rp.mat(rec, st, patched)
	rp.eig(rec, st, patched)
	return rp.wire(rec, rows, masks)
}

// patchRows fills each row's missing bins from mean, giving complete rows
// for the kernels that only take complete input.
func patchRows(rows [][]float64, masks [][]bool, mean []float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, x := range rows {
		if masks[i] == nil {
			out[i] = x
			continue
		}
		y := append([]float64(nil), x...)
		for j, ok := range masks[i] {
			if !ok {
				y[j] = mean[j]
			}
		}
		out[i] = y
	}
	return out
}

func (rp *replay) ingest(rec *recorder, rows [][]float64) error {
	bs := ingest.NewBinaryStream(bytes.NewReader(encodeRows(rows)), rp.d)
	var total time.Duration
	var err error
	id := rec.begin("ingest")
	defer rec.end(id)
	for range rows {
		total += rec.timed("ingest.BinaryStream.Next", func() { _, _, err = bs.Next() })
		if err != nil {
			return err
		}
	}
	rp.sample("ingest.binary_ns_per_row", float64(total.Nanoseconds())/float64(len(rows)))
	return nil
}

// messages packs rows into the workload's transport unit: frames of batch
// tuples, or lone tuples, with consecutive sequence numbers.
func (rp *replay) messages(rows [][]float64, masks [][]bool, count int) []stream.Message {
	var msgs []stream.Message
	seq := int64(0)
	next := func() stream.Tuple {
		i := int(seq) % len(rows)
		t := stream.Tuple{Seq: seq, Vec: rows[i], Mask: masks[i]}
		seq++
		return t
	}
	for len(msgs) < count {
		if rp.w.batch <= 1 {
			msgs = append(msgs, next())
			continue
		}
		f := stream.Frame{Seq: seq, Tuples: make([]stream.Tuple, rp.w.batch)}
		for j := range f.Tuples {
			f.Tuples[j] = next()
		}
		msgs = append(msgs, f)
	}
	return msgs
}

// stream times the runtime alone: source → Split → two no-op operators,
// with the pipeline's queue depths.
func (rp *replay) stream(rec *recorder, rows [][]float64, masks [][]bool) error {
	count, buf := streamMsgs, 64
	if rp.w.batch > 1 {
		count, buf = streamFrame, 2
	}
	msgs := rp.messages(rows, masks, count)
	g := stream.NewGraph()
	src := g.AddSource("source", func(ctx context.Context, emit stream.Emit) error {
		for _, m := range msgs {
			emit(0, m)
		}
		return nil
	})
	split := g.Add("split", &stream.Split{N: numEngines, Seed: rp.seed}, stream.WithBuffer(buf))
	if err := g.Connect(src, 0, split, 0); err != nil {
		return err
	}
	for i := 0; i < numEngines; i++ {
		op := g.Add(fmt.Sprintf("noop%d", i), &stream.FuncOperator{}, stream.WithBuffer(buf))
		if err := g.Connect(split, i, op, 0); err != nil {
			return err
		}
	}
	var err error
	d := rec.timed("stream.Graph.Run", func() { err = g.Run(context.Background()) })
	rp.sample("stream.dispatch_ns_per_msg", float64(d.Nanoseconds())/float64(len(msgs)))
	return err
}

// observe feeds one row the way the pipeline's per-tuple path does.
func observe(en *core.Engine, x []float64, mask []bool) {
	if mask != nil {
		_, _ = en.ObserveMasked(x, mask)
	} else {
		_, _ = en.ObserveAuto(x)
	}
}

// warmEngine creates an engine and feeds rows until it is ready, inside a
// core.warmup span; it returns the engine and the rows consumed.
func (rp *replay) warmEngine(rec *recorder, rows [][]float64, masks [][]bool) (*core.Engine, int, error) {
	var en *core.Engine
	var err error
	id := rec.begin("core.warmup")
	rec.timed("core.NewEngine", func() { en, err = core.NewEngine(rp.w.engine) })
	i := 0
	for err == nil && !en.Ready() && i < len(rows) {
		rec.timed("core.Observe", func() { observe(en, rows[i], masks[i]) })
		i++
	}
	rec.end(id)
	if err == nil && !en.Ready() {
		err = fmt.Errorf("engine not ready after %d rows", i)
	}
	if err != nil {
		en.Close()
		return nil, 0, err
	}
	rp.sample("core.warmup_ms", float64(rec.spans[id].End-rec.spans[id].Start)/1e6)
	return en, i, nil
}

// core times warm-up, the scalar and block update paths, snapshots and
// merges on two engines fed the window; it returns the scalar engine's
// final state for the kernel replays.
func (rp *replay) core(rec *recorder, rows [][]float64, masks [][]bool) (*core.Eigensystem, error) {
	id := rec.begin("core")
	defer rec.end(id)
	scalar, used, err := rp.warmEngine(rec, rows, masks)
	if err != nil {
		return nil, err
	}
	defer scalar.Close()
	early, err := scalar.Snapshot()
	if err != nil {
		return nil, err
	}
	var total time.Duration
	for i := used; i < len(rows); i++ {
		total += rec.timed("core.Observe", func() { observe(scalar, rows[i], masks[i]) })
	}
	rp.sample("core.observe_ns_per_row", float64(total.Nanoseconds())/float64(len(rows)-used))

	block, used, err := rp.warmEngine(rec, rows, masks)
	if err != nil {
		return nil, err
	}
	defer block.Close()
	var complete [][]float64
	for i := used; i < len(rows); i++ {
		if masks[i] == nil {
			complete = append(complete, rows[i])
		}
	}
	width := max(rp.w.batch, 64)
	var out []core.Update
	total = 0
	for lo := 0; lo < len(complete); lo += width {
		chunk := complete[lo:min(lo+width, len(complete))]
		total += rec.timed("core.ObserveBlock", func() { out, _ = block.ObserveBlock(chunk, out[:0]) })
	}
	if len(complete) > 0 {
		rp.sample("core.block_ns_per_row", float64(total.Nanoseconds())/float64(len(complete)))
	}

	const merges = 8
	var snapT, mergeT time.Duration
	var st *core.Eigensystem
	for j := 0; j < merges; j++ {
		snapT += rec.timed("core.Snapshot", func() { st, err = scalar.Snapshot() })
		if err != nil {
			return nil, err
		}
		mergeT += rec.timed("core.MergeSnapshot", func() { err = block.MergeSnapshot(st) })
		if err != nil {
			return nil, err
		}
	}
	rp.sample("core.snapshot_us", float64(snapT.Nanoseconds())/1e3/merges)
	rp.sample("core.merge_us", float64(mergeT.Nanoseconds())/1e3/merges)

	// Snapshot sizes on the wire: a sender's first snapshot travels whole,
	// the next one, here after the window's observations, as an XOR delta
	// against it — or whole again when the delta would not be smaller,
	// which is what happens once every float of the state has moved.
	full, delta, err := snapshotBytes(early, st)
	if err != nil {
		return nil, err
	}
	rp.sample("wire.snapshot_full_bytes", float64(full))
	rp.sample("wire.snapshot_delta_bytes", float64(delta))
	return st, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// snapshotBytes encodes a then b as consecutive snapshots from one sender
// and returns the encoded size of each.
func snapshotBytes(a, b *core.Eigensystem) (full, delta int64, err error) {
	var cw countingWriter
	enc := wire.NewEncoder(&cw, false)
	if err := enc.Encode(stream.Snapshot{From: 0, To: 1, State: a}); err != nil {
		return 0, 0, err
	}
	full = cw.n
	if err := enc.Encode(stream.Snapshot{From: 0, To: 1, State: b}); err != nil {
		return 0, 0, err
	}
	return full, cw.n - full, nil
}

// mat times the pooled kernels at the shapes one rank-c rebuild uses, as
// often as the block update would call them for the window.
func (rp *replay) mat(rec *recorder, st *core.Eigensystem, rows [][]float64) {
	d, k, c := rp.d, rp.k, rp.c
	id := rec.begin("mat")
	defer rec.end(id)
	vecs := st.Vectors
	y := make([]float64, d)
	coef := make([]float64, k)
	part := make([]float64, mat.CenterProjectPanels(d)*(k+1))
	var cp time.Duration
	for _, x := range rows {
		cp += rec.timed("mat.Pool.CenterProject", func() { rp.pool.CenterProject(y, coef, x, st.Mean, vecs, part) })
	}
	rp.sample("mat.center_project_ns", float64(cp.Nanoseconds())/float64(len(rows)))

	yMat := mat.NewDense(c, d)
	wMat := mat.NewDense(c, k)
	mMat := mat.Identity(k)
	syrk := mat.NewDense(c, c)
	eNew := mat.NewDense(d, k)
	for i := 0; i < c; i++ {
		mat.SubTo(yMat.Row(i), rows[i], st.Mean)
		mat.MulVecT(wMat.Row(i), vecs, yMat.Row(i))
		mat.Scale(1e-3, wMat.Row(i))
	}
	for l := 0; l < k; l++ {
		mMat.Set(l, (l+1)%k, 1e-3)
	}
	// The rebuild's basis update is staged: E·M through Pool.Mul, then the
	// Yᵀ·W panel through Pool.AddMulTARows.
	var syrkT, panelT, basisT time.Duration
	calls := max(len(rows)/c, 1)
	for j := 0; j < calls; j++ {
		syrkT += rec.timed("mat.Pool.SyrkRows", func() { rp.pool.SyrkRows(syrk, yMat, c) })
		basisT += rec.timed("mat.Pool.Mul", func() { rp.pool.Mul(eNew, vecs, mMat) })
		panelT += rec.timed("mat.Pool.AddMulTARows", func() { rp.pool.AddMulTARows(eNew, yMat, wMat, c) })
	}
	rp.sample("mat.syrk_rows_ns", float64(syrkT.Nanoseconds())/float64(calls))
	rp.sample("mat.panel_ns", float64(panelT.Nanoseconds())/float64(calls))
	rp.sample("mat.basis_update_ns", float64(basisT.Nanoseconds())/float64(calls))
}

// eig times the small eigensolvers and factorizations the engine runs: the
// (k+c) tridiagonal solve of a block rebuild, the (k+1) Jacobi solve of a
// rank-one rebuild, basis re-orthonormalization and the warm-up thin SVD.
func (rp *replay) eig(rec *recorder, st *core.Eigensystem, rows [][]float64) {
	d, k, c := rp.d, rp.k, rp.c
	id := rec.begin("eig")
	defer rec.end(id)
	// Gram systems of the engine's shape: scaled basis columns next to
	// centered rows.
	gram := func(extra int) *mat.Dense {
		b := mat.NewDense(d, k+extra)
		for j := 0; j < k; j++ {
			s := math.Sqrt(math.Max(st.Values[j], 0))
			for i := 0; i < d; i++ {
				b.Set(i, j, s*st.Vectors.At(i, j))
			}
		}
		y := make([]float64, d)
		for m := 0; m < extra; m++ {
			b.SetCol(k+m, mat.SubTo(y, rows[m], st.Mean))
		}
		return mat.MulTA(nil, b, b)
	}
	gc, g1 := gram(c), gram(1)
	wsC, ws1 := eig.NewSymEigWorkspace(k+c), eig.NewSymEigWorkspace(k+1)
	var tri, jac time.Duration
	triCalls := max(len(rows)/c, 1)
	for j := 0; j < triCalls; j++ {
		tri += rec.timed("eig.TridiagSym", func() { eig.TridiagSym(gc, wsC) })
	}
	for range rows {
		jac += rec.timed("eig.JacobiSym", func() { eig.JacobiSym(g1, ws1) })
	}
	rp.sample("eig.tridiag_us", float64(tri.Nanoseconds())/1e3/float64(triCalls))
	rp.sample("eig.jacobi_us", float64(jac.Nanoseconds())/1e3/float64(len(rows)))

	const orthCalls, svdCalls = 8, 4
	ows := eig.NewOrthoWorkspace(d)
	q := mat.NewDense(d, k)
	var orth time.Duration
	for j := 0; j < orthCalls; j++ {
		q.CopyFrom(st.Vectors)
		q.Add(j%d, j%k, 1e-6)
		orth += rec.timed("eig.OrthonormalizeWS", func() { eig.OrthonormalizeWS(q, ows) })
	}
	rp.sample("eig.orthonormalize_us", float64(orth.Nanoseconds())/1e3/orthCalls)

	n := rp.cfg.InitSize
	a := mat.NewDense(d, n)
	work := mat.NewDense(d, n)
	y := make([]float64, d)
	for j := 0; j < n; j++ {
		a.SetCol(j, mat.SubTo(y, rows[j], st.Mean))
	}
	var svd time.Duration
	for j := 0; j < svdCalls; j++ {
		work.CopyFrom(a)
		svd += rec.timed("eig.ThinSVD", func() { eig.ThinSVD(work) })
	}
	rp.sample("eig.thin_svd_ms", float64(svd.Nanoseconds())/1e6/svdCalls)
}

// wire encodes the window in the workload's transport unit into the
// loopback socket (Append+Flush per message, as the edge sender does for a
// lone message), drains the far end, then decodes what arrived.
func (rp *replay) wire(rec *recorder, rows [][]float64, masks [][]bool) error {
	count := len(rows)
	if rp.w.batch > 1 {
		count = len(rows) / rp.w.batch
	}
	msgs := rp.messages(rows, masks, count)
	// The byte count is fixed by the messages; learn it first so the far
	// end knows how much to drain.
	var cw countingWriter
	pre := wire.NewEncoder(&cw, false)
	tuples := 0
	for _, m := range msgs {
		if err := pre.Encode(m); err != nil {
			return err
		}
		if f, ok := m.(stream.Frame); ok {
			tuples += len(f.Tuples)
		} else {
			tuples++
		}
	}
	if int64(cap(rp.rbuf)) < cw.n {
		rp.rbuf = make([]byte, cw.n)
	}
	buf := rp.rbuf[:cw.n]
	drained := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(rp.server, buf)
		drained <- err
	}()
	id := rec.begin("wire")
	defer rec.end(id)
	var encT, decT time.Duration
	var err error
	for _, m := range msgs {
		encT += rec.timed("wire.Encoder.AppendFlush", func() {
			if err = rp.enc.Append(m); err == nil {
				err = rp.enc.Flush()
			}
		})
		if err != nil {
			break
		}
	}
	if err != nil {
		// Unblock the drain: the bytes it waits for will never come.
		_ = rp.server.SetReadDeadline(time.Now())
	}
	if derr := <-drained; err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	dec := wire.NewDecoder(bytes.NewReader(buf), wire.NewRecvPool(rp.d, max(rp.w.batch, 1)), 0)
	for range msgs {
		var msg stream.Message
		decT += rec.timed("wire.Decoder.Decode", func() { msg, err = dec.Decode() })
		if err != nil {
			return err
		}
		if f, ok := msg.(stream.Frame); ok && f.Release != nil {
			f.Release()
		}
	}
	rp.sample("wire.encode_ns_per_frame", float64(encT.Nanoseconds())/float64(len(msgs)))
	rp.sample("wire.decode_ns_per_frame", float64(decT.Nanoseconds())/float64(len(msgs)))
	rp.sample("wire.bytes_per_tuple", float64(cw.n)/float64(tuples))
	return nil
}
