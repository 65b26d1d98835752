package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"streampca/internal/core"
	"streampca/internal/pipeline"
)

// session is one untraced run of the system: a Run call in-process, or a
// worker launch plus a RunCoordinator call over the wire.
type session struct {
	tuples int64
	// wall is the duration of the Run or RunCoordinator call.
	wall time.Duration
	// selfCPU and childCPU are the user+system CPU of this process and of
	// the workers reaped during the session.
	selfCPU, childCPU time.Duration
	// steal is the share of the machine's CPU time the hypervisor gave to
	// other guests during the session.
	steal float64
	// setup is the time spent starting the system before the first Source
	// pull: Run entry to first pull in-process; worker launch until every
	// ready line plus RunCoordinator entry to first pull over the wire.
	setup     time.Duration
	affinity  float64
	processed int64
	// allocBytes and gcCycles are runtime.MemStats deltas of this process
	// around the run call.
	allocBytes uint64
	gcCycles   uint32
	res        *pipeline.Result
	// err is set when the session failed or an output check failed.
	err error
}

func (s *session) cpu() time.Duration { return s.selfCPU + s.childCPU }

// runSession runs session i of workload w and checks its outputs.
func runSession(ctx context.Context, w workload, in *inputs, i int, seed uint64) session {
	var bad int
	src, first := sessionSource(w, in, i, &bad)
	// Start from a collected heap, so neither input generation nor earlier
	// sessions bill their garbage to this one.
	runtime.GC()
	var s session
	var ms0, ms1 runtime.MemStats
	u0 := readUsage()
	runtime.ReadMemStats(&ms0)
	var res *pipeline.Result
	var err error
	if w.wire {
		res, err = runWire(ctx, w, src, first, seed+uint64(i), &s)
	} else {
		t0 := time.Now()
		res, err = pipeline.Run(ctx, pipeline.Config{
			Engine: w.engine, NumEngines: numEngines, Source: src,
			Seed: seed + uint64(i), SyncEvery: syncEvery, Batch: w.batch,
		})
		s.wall = time.Since(t0)
		if !first.IsZero() {
			s.setup = first.Sub(t0)
		}
	}
	runtime.ReadMemStats(&ms1)
	u1 := readUsage()
	s.selfCPU, s.childCPU = u1.self-u0.self, u1.children-u0.children
	s.steal = stealFrac(u0, u1)
	s.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	s.gcCycles = ms1.NumGC - ms0.NumGC
	s.res = res
	if err != nil {
		s.err = err
		return s
	}
	if bad > 0 {
		s.err = fmt.Errorf("%d malformed input records", bad)
		return s
	}
	s.tuples = res.TuplesIn
	for _, e := range res.Engines {
		s.processed += e.Processed
	}
	s.err = checkSession(w, in, res, &s)
	return s
}

// runWire launches fresh single-session workers, drives them with
// RunCoordinator and reaps them, so their CPU lands in RUSAGE_CHILDREN.
func runWire(ctx context.Context, w workload, src pipeline.Source, first *time.Time, seed uint64, s *session) (*pipeline.Result, error) {
	t0 := time.Now()
	cl, err := pipeline.LaunchWorkers(ctx, numEngines, pipeline.WorkerSpec{
		Dim: w.engine.Dim, Components: w.engine.Components, Extra: w.engine.Extra,
		Alpha: w.engine.Alpha, InitSize: w.engine.InitSize, Batch: w.batch, Sessions: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("launching workers: %w", err)
	}
	t1 := time.Now()
	res, err := pipeline.RunCoordinator(ctx, pipeline.DistConfig{
		Engine: w.engine, Workers: cl.Addrs, Source: src,
		Seed: seed, SyncEvery: syncEvery, Batch: w.batch,
	})
	s.wall = time.Since(t1)
	if !first.IsZero() {
		s.setup = t1.Sub(t0) + first.Sub(t1)
	}
	if err != nil {
		cl.Shutdown()
		return nil, err
	}
	if err := cl.Wait(); err != nil {
		return nil, fmt.Errorf("worker exit: %w", err)
	}
	return res, nil
}

// orthoTol bounds max|VᵀV − I| of the merged basis.
const orthoTol = 1e-8

// checkSession verifies the outputs of a session: nothing lost or failed,
// a finite merged eigensystem with an orthonormal basis and positive σ²,
// and accuracy above the workload's floor. It records the affinity.
func checkSession(w workload, in *inputs, res *pipeline.Result, s *session) error {
	var problems []string
	if len(res.Failures) > 0 {
		problems = append(problems, fmt.Sprintf("%d operator failures", len(res.Failures)))
	}
	if s.tuples != int64(w.sessionTuples) {
		problems = append(problems, fmt.Sprintf("source emitted %d tuples, want %d", s.tuples, w.sessionTuples))
	}
	if s.processed != s.tuples {
		problems = append(problems, fmt.Sprintf("engines processed %d of %d tuples", s.processed, s.tuples))
	}
	m := res.Merged
	if m == nil {
		return errors.New(strings.Join(append(problems, "no merged eigensystem"), "; "))
	}
	if err := eigensystemHealthy(m); err != nil {
		problems = append(problems, err.Error())
	}
	s.affinity = m.SubspaceAffinity(in.truth)
	if !(s.affinity >= w.sessionFloor) {
		problems = append(problems, fmt.Sprintf("affinity %.4f below floor %.2f", s.affinity, w.sessionFloor))
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

// eigensystemHealthy checks the invariants of a merged eigensystem: finite
// positive σ², finite eigenvalues and an orthonormal basis.
func eigensystemHealthy(m *core.Eigensystem) error {
	if math.IsNaN(m.Sigma2) || math.IsInf(m.Sigma2, 0) || m.Sigma2 <= 0 {
		return fmt.Errorf("sigma2 %v not finite and positive", m.Sigma2)
	}
	for _, v := range m.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("eigenvalue %v not finite", v)
		}
	}
	if e := orthonormalityError(m); !(e <= orthoTol) {
		return fmt.Errorf("basis orthonormality error %.3g above %.0e", e, orthoTol)
	}
	return nil
}

func orthonormalityError(m *core.Eigensystem) float64 {
	v := m.Vectors
	d, k := v.Dims()
	var worst float64
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			var dot float64
			for i := 0; i < d; i++ {
				dot += v.At(i, a) * v.At(i, b)
			}
			if a == b {
				dot--
			}
			if math.IsNaN(dot) {
				return math.Inf(1)
			}
			worst = math.Max(worst, math.Abs(dot))
		}
	}
	return worst
}

// meanAffinity is the mean affinity of the sessions that passed their
// checks, and how many did.
func meanAffinity(sessions []session) (float64, int) {
	var sum float64
	n := 0
	for _, s := range sessions {
		if s.err == nil && s.res != nil {
			sum += s.affinity
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// checkRun verifies the run-level output: the mean affinity of the passing
// sessions meets the workload's floor.
func checkRun(w workload, sessions []session) error {
	if m, n := meanAffinity(sessions); n > 0 && !(m >= w.meanFloor) {
		return fmt.Errorf("mean session affinity %.4f below floor %.2f", m, w.meanFloor)
	}
	return nil
}

// runSessions runs sessions until the time budget is spent, and at least
// minSessions of them.
func runSessions(ctx context.Context, w workload, in *inputs, seed uint64, budget time.Duration, minSessions int) []session {
	var out []session
	start := time.Now()
	for i := 0; len(out) < minSessions || time.Since(start) < budget; i++ {
		out = append(out, runSession(ctx, w, in, i, seed))
		if ctx.Err() != nil {
			break
		}
	}
	return out
}

// endToEnd reduces sessions to the end-to-end metrics. Rates are medians
// over sessions; affinity is the session mean; delivered_frac pools every
// session; max_rss_mb is the peak of this process and its reaped workers.
//
// On a virtual machine the hypervisor can hand the CPUs to other guests for
// long stretches (the steal time of /proc/stat), stretching wall time while
// the program does the same work. tuples_per_s therefore divides by the
// wall time the machine kept: the run call's duration times one minus the
// session's steal share. The raw wall time and steal of every session are
// printed on the line before the result.
func endToEnd(sessions []session) map[string]float64 {
	var rate, cpuRate, setup []float64
	var tuples, processed int64
	for _, s := range sessions {
		if s.res == nil {
			continue
		}
		tuples += s.res.TuplesIn
		processed += s.processed
		if s.err != nil || s.tuples == 0 {
			continue
		}
		rate = append(rate, float64(s.tuples)/(s.wall.Seconds()*(1-min(s.steal, 0.9))))
		cpuRate = append(cpuRate, float64(s.tuples)/s.cpu().Seconds())
		setup = append(setup, s.setup.Seconds())
	}
	u := readUsage()
	aff, _ := meanAffinity(sessions)
	out := map[string]float64{
		"tuples_per_s":     median(rate),
		"tuples_per_cpu_s": median(cpuRate),
		"setup_s":          median(setup),
		"affinity":         aff,
		"delivered_frac":   0,
		"max_rss_mb":       float64(max(u.selfRSSKiB, u.childKiB)) / 1024,
	}
	if tuples > 0 {
		out["delivered_frac"] = float64(processed) / float64(tuples)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
