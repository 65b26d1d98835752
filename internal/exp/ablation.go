package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"streampca/internal/core"
	"streampca/internal/eig"
	"streampca/internal/mat"
	"streampca/internal/pipeline"
	"streampca/internal/spectra"
	"streampca/internal/syncctl"
)

// SyncAblationConfig parameterizes the synchronization ablation (extension
// experiment E7): the same contaminated stream through a real goroutine
// pipeline under different coordination regimes, comparing the *worst*
// engine's subspace accuracy — the quantity synchronization exists to
// protect ("the resulting eigensystem can be obtained from any node").
type SyncAblationConfig struct {
	// Dim, Components, Window: estimator settings (defaults 40, 3, 300).
	Dim, Components int
	Window          float64
	// Engines is the parallel width (default 4).
	Engines int
	// N is the stream length (default 16000).
	N int64
	// Seed fixes the stream and split.
	Seed uint64
}

func (c *SyncAblationConfig) defaults() {
	if c.Dim == 0 {
		c.Dim = 40
	}
	if c.Components == 0 {
		c.Components = 3
	}
	if c.Window == 0 {
		c.Window = 300
	}
	if c.Engines == 0 {
		c.Engines = 4
	}
	if c.N == 0 {
		c.N = 16000
	}
}

// SyncAblationRow is one regime's outcome.
type SyncAblationRow struct {
	// Regime names the coordination mode.
	Regime string
	// WorstAff and MeanAff summarize per-engine subspace affinity to the
	// planted basis; MergedAff is the all-engine reduction.
	WorstAff, MeanAff, MergedAff float64
	// Syncs counts snapshot transfers that happened.
	Syncs int64
	// Throughput is tuples/second through the real pipeline.
	Throughput float64
}

// SyncAblationResult is the regime table.
type SyncAblationResult struct {
	// Rows, one per regime: none, ring, broadcast, ring-unconditioned.
	Rows []SyncAblationRow
}

// The sync ablation's source is paced at paceRate tuples per second. The
// regimes differ in how many wall-clock sync ticks fall within the stream;
// a fixed pace fixes the ticks per tuple, so the outcome does not swing
// with how fast the host or the kernels run. The source checks its
// schedule every pacePeriod tuples, since sleeping per tuple would be finer
// than the timer's resolution.
const (
	paceRate   = 50000
	pacePeriod = 64
)

// RunSyncAblation executes each regime on an identically seeded stream.
func RunSyncAblation(cfg SyncAblationConfig) (*SyncAblationResult, error) {
	cfg.defaults()
	type regime struct {
		name     string
		every    time.Duration
		strategy syncctl.Strategy
		factor   float64
	}
	regimes := []regime{
		{"no-sync", 0, syncctl.Ring, 1.5},
		{"ring-1.5N", time.Millisecond, syncctl.Ring, 1.5},
		{"broadcast-1.5N", time.Millisecond, syncctl.Broadcast, 1.5},
		{"ring-always", time.Millisecond, syncctl.Ring, -1},
	}
	res := &SyncAblationResult{}
	for _, rg := range regimes {
		gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{
			Dim: cfg.Dim, Signals: cfg.Components, Seed: cfg.Seed, OutlierRate: 0.05,
		})
		if err != nil {
			return nil, err
		}
		var i int64
		var start time.Time
		src := func() ([]float64, []bool, bool) {
			if i >= cfg.N {
				return nil, nil, false
			}
			if i == 0 {
				start = time.Now()
			} else if i%pacePeriod == 0 {
				time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second / paceRate)))
			}
			i++
			x, _ := gen.Next()
			return x, nil, true
		}
		pcfg := pipeline.Config{
			Engine: core.Config{
				Dim: cfg.Dim, Components: cfg.Components, Alpha: 1 - 1/cfg.Window,
			},
			NumEngines:   cfg.Engines,
			Source:       src,
			Seed:         cfg.Seed + 1,
			SyncEvery:    rg.every,
			SyncStrategy: rg.strategy,
			SyncFactor:   rg.factor,
		}
		out, err := pipeline.Run(context.Background(), pcfg)
		if err != nil {
			return nil, err
		}
		row := SyncAblationRow{Regime: rg.name, WorstAff: 1, Throughput: out.Throughput()}
		truth := gen.TrueBasis()
		var sum float64
		var counted int
		for _, st := range out.Engines {
			row.Syncs += st.SnapshotsSent
			if st.Final == nil {
				row.WorstAff = 0
				continue
			}
			a := st.Final.SubspaceAffinity(truth)
			sum += a
			counted++
			if a < row.WorstAff {
				row.WorstAff = a
			}
		}
		if counted > 0 {
			row.MeanAff = sum / float64(counted)
		}
		if out.Merged != nil {
			row.MergedAff = out.Merged.SubspaceAffinity(truth)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteText renders the regime table.
func (r *SyncAblationResult) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Sync ablation — per-engine accuracy under coordination regimes")
	fmt.Fprintln(w, "regime            worst-aff  mean-aff  merged-aff   syncs   tuples/s")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s  %9.3f  %8.3f  %10.3f  %6d  %9.0f\n",
			row.Regime, row.WorstAff, row.MeanAff, row.MergedAff, row.Syncs, row.Throughput)
	}
}

// GapsAblationConfig parameterizes the missing-data ablation (extension
// experiment E8): gappy spectra under (a) dropping gappy observations,
// (b) patching without the higher-order residual correction (Extra = 0),
// (c) patching with it (Extra > 0) — §II-D's design choices.
type GapsAblationConfig struct {
	// Bins, Rank: spectra settings (defaults 200, 3).
	Bins, Rank int
	// GapRate is the fraction of gappy observations. The default is 1.0 —
	// the paper's redshift-coverage regime where *every* spectrum has
	// wavelength gaps, so dropping gappy data starves the estimator.
	GapRate float64
	// Noise is the per-bin noise level (default 0.05, survey-like).
	Noise float64
	// MaxRedshift bounds the sliding coverage window (default 0.15, about
	// 16% of the grid masked per spectrum).
	MaxRedshift float64
	// N is the stream length (default 12000).
	N int
	// Seed fixes the stream.
	Seed uint64
}

func (c *GapsAblationConfig) defaults() {
	if c.Bins == 0 {
		c.Bins = 200
	}
	if c.Rank == 0 {
		c.Rank = 3
	}
	if c.GapRate == 0 {
		c.GapRate = 1.0
	}
	if c.Noise == 0 {
		c.Noise = 0.05
	}
	if c.MaxRedshift == 0 {
		c.MaxRedshift = 0.15
	}
	if c.N == 0 {
		c.N = 12000
	}
}

// GapsAblationRow is one strategy's outcome.
type GapsAblationRow struct {
	// Strategy names the gap-handling mode.
	Strategy string
	// Affinity is the final subspace affinity to the generator truth.
	Affinity float64
	// Used counts observations actually absorbed.
	Used int64
	// ConvergedAt is the stream position at which affinity first reached
	// 0.9 (checked every 200 observations), or 0 if never — the paper's
	// §II-C argument against dropping is precisely that it delays new
	// solutions in stream time.
	ConvergedAt int
	// Sigma2 is the final M-scale. Patching without the higher-order
	// correction artificially removes residuals in the masked bins
	// (§II-D), so its σ² is biased low relative to the corrected run.
	Sigma2 float64
}

// GapsAblationResult is the strategy table.
type GapsAblationResult struct {
	Rows []GapsAblationRow
}

// RunGapsAblation streams the same gappy survey through the three
// strategies.
func RunGapsAblation(cfg GapsAblationConfig) (*GapsAblationResult, error) {
	cfg.defaults()
	type strategy struct {
		name  string
		extra int
		drop  bool
	}
	strategies := []strategy{
		{"drop-gappy", 0, true},
		{"patch-extra0", 0, false},
		{"patch-extra2", 2, false},
	}
	res := &GapsAblationResult{}
	for _, st := range strategies {
		gen, err := spectra.NewGenerator(spectra.GeneratorConfig{
			Grid: spectra.SDSSGrid(cfg.Bins), Rank: cfg.Rank,
			GapRate: cfg.GapRate, NoiseSigma: cfg.Noise,
			MaxRedshift: cfg.MaxRedshift, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		en, err := core.NewEngine(core.Config{
			Dim: cfg.Bins, Components: cfg.Rank, Extra: st.extra, Alpha: 1 - 1.0/3000,
		})
		if err != nil {
			return nil, err
		}
		row := GapsAblationRow{Strategy: st.name}
		// Judge on the well-observed interior of the grid: the outermost
		// bins are covered only by extreme redshifts, so no estimator can
		// be expected to constrain them (astronomers likewise trim
		// eigenspectra edges).
		lo, hi := gen.Grid().Range()
		span := math.Log10(hi) - math.Log10(lo)
		margin := int(math.Log10(1+cfg.MaxRedshift) / span * float64(cfg.Bins))
		truth := interiorRows(gen.TrueBasis().SliceCols(0, cfg.Rank), margin, cfg.Bins-margin)
		for i := 0; i < cfg.N; i++ {
			obs := gen.Next()
			gappy := false
			for _, ok := range obs.Mask {
				if !ok {
					gappy = true
					break
				}
			}
			if !(gappy && st.drop) {
				var err error
				if gappy {
					_, err = en.ObserveMasked(obs.Flux, obs.Mask)
				} else {
					_, err = en.Observe(obs.Flux)
				}
				if err == nil {
					row.Used++
				}
			}
			if row.ConvergedAt == 0 && (i+1)%200 == 0 && en.Ready() {
				if interiorAffinity(truth, en.Eigensystem(), cfg.Rank, margin, cfg.Bins-margin) >= 0.9 {
					row.ConvergedAt = i + 1
				}
			}
		}
		if en.Ready() {
			row.Affinity = interiorAffinity(truth, en.Eigensystem(), cfg.Rank, margin, cfg.Bins-margin)
			row.Sigma2 = en.Eigensystem().Sigma2
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// interiorRows extracts rows [lo,hi) of m and re-orthonormalizes the
// columns so the result spans the row-restricted subspace.
func interiorRows(m *mat.Dense, lo, hi int) *mat.Dense {
	if lo < 0 {
		lo = 0
	}
	if hi > m.Rows() {
		hi = m.Rows()
	}
	out := mat.NewDense(hi-lo, m.Cols())
	for i := lo; i < hi; i++ {
		copy(out.Row(i-lo), m.Row(i))
	}
	eig.Orthonormalize(out)
	return out
}

// interiorAffinity compares the first p components of an eigensystem with
// an (already row-restricted, orthonormal) truth basis over rows [lo,hi).
func interiorAffinity(truth *mat.Dense, es *core.Eigensystem, p, lo, hi int) float64 {
	est := interiorRows(es.Vectors.SliceCols(0, p), lo, hi)
	g := mat.MulTA(nil, truth, est)
	f := g.FrobeniusNorm()
	return f * f / float64(truth.Cols())
}

// WriteText renders the strategy table.
func (r *GapsAblationResult) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Gap-handling ablation — §II-D design choices (interior affinity)")
	fmt.Fprintln(w, "strategy       affinity   used   pos@0.9-aff   sigma2")
	for _, row := range r.Rows {
		conv := "never"
		if row.ConvergedAt > 0 {
			conv = fmt.Sprintf("%d", row.ConvergedAt)
		}
		fmt.Fprintf(w, "%-13s  %8.3f  %5d   %11s   %.4g\n",
			row.Strategy, row.Affinity, row.Used, conv, row.Sigma2)
	}
}
