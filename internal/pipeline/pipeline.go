// Package pipeline wires the paper's analysis graph (Figure 2): an input
// source feeding a multithreaded split, N stateful streaming-PCA engines, a
// throttled synchronization controller, and a result sink. Engines exchange
// eigensystem snapshots over loop edges exactly as InfoSphere control ports
// carry sync messages, and the final eigensystem "can be obtained from any
// node" — or merged across all of them.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"streampca/internal/core"
	"streampca/internal/fault"
	"streampca/internal/obs"
	"streampca/internal/stream"
	"streampca/internal/syncctl"
	"streampca/internal/wire"
)

// Source yields the input stream: each call returns the next observation
// (vec required; mask nil for complete vectors) and ok=false when the
// stream is exhausted. Implementations are called from a single goroutine.
type Source func() (vec []float64, mask []bool, ok bool)

// Config assembles a parallel streaming-PCA application.
type Config struct {
	// Engine is the per-engine PCA configuration (validated by Run).
	Engine core.Config
	// NumEngines is the parallel width N of the split (default 1).
	NumEngines int
	// Source provides the data; required.
	Source Source
	// Split selects the load-balancing policy (default: the paper's seeded
	// random choice, spilling past full engine queues unless Chaos is set).
	Split stream.SplitPolicy
	// Seed seeds the random split.
	Seed uint64
	// SyncEvery is the synchronization throttle period; 0 disables the
	// controller entirely (independent engines).
	SyncEvery time.Duration
	// SyncStrategy selects the controller pattern (default ring).
	SyncStrategy syncctl.Strategy
	// SyncGroupSize is the group width for the Group strategy.
	SyncGroupSize int
	// SyncFactor is the data-driven independence criterion multiplier; an
	// engine participates in a sync only after SyncFactor·N observations
	// since its last one. Default 1.5 (§II-C).
	SyncFactor float64
	// FuseEnginesPerPE, when > 0, places that many engines on each
	// processing element (operator fusion); 0 gives each engine its own PE.
	FuseEnginesPerPE int
	// Batch, when > 1, turns on micro-batched transport: the source packs up
	// to Batch tuples into one stream.Frame, so every channel hop, split
	// decision and operator dispatch is paid once per frame instead of once
	// per tuple, and the engines absorb each frame's clean runs through the
	// block-incremental update (core.Engine.ObserveBlock). 0 or 1 keeps the
	// one-tuple-per-message transport.
	Batch int
	// FlushEvery bounds how long a partially filled frame may accumulate
	// before it is emitted anyway, keeping tail latency bounded when the
	// source slows down (default 2ms; only meaningful with Batch > 1). The
	// deadline is checked as tuples arrive, so it bounds staleness relative
	// to source progress — a source that blocks indefinitely holds its
	// partial frame with it.
	FlushEvery time.Duration
	// AdaptiveBatch, when true (and Batch > 1), lets the runtime retune the
	// frame width and flush deadline while the stream runs: a controller on
	// the source goroutine reads the engines' own latency and queue-depth
	// histograms, hill-climbs the width within [2, Batch] toward the best
	// measured tuples/s (growing it outright under standing backpressure),
	// and tracks the flush deadline to the engines' measured per-message
	// latency. Every move is journaled as an adapt-retune event. Batch then
	// acts as the capacity ceiling rather than a hand-tuned operating point.
	AdaptiveBatch bool
	// Buffer is the per-node channel buffer (default 64).
	Buffer int
	// Chaos, when non-nil, injects deterministic faults into the run.
	Chaos *ChaosConfig
	// Obs, when non-nil, threads the observability bundle through every
	// layer: per-operator latency/batch/queue histograms on the stream
	// runtime, algorithm gauges on each engine, sync telemetry on the
	// controller, and control-plane events (syncs, failures, checkpoints)
	// in the shared journal. Serve it with obs.Handler during the run.
	Obs *obs.Set
}

// ChaosConfig describes a deterministic fault scenario for a pipeline run.
// Every fault source is driven by seeded PRNGs, so two runs with the same
// configuration and source produce identical fault schedules.
type ChaosConfig struct {
	// Edge maps an engine index to a fault plan interposed on its
	// split→engine data edge (drop/duplicate/delay/reorder).
	Edge map[int]fault.Plan
	// Engine maps an engine index to a fault plan whose PanicAfter crashes
	// that engine's operator mid-stream.
	Engine map[int]fault.Plan
	// RestartAfter is how long after a crash the supervisor revives the
	// engine from its last checkpoint; 0 leaves crashed engines down.
	RestartAfter time.Duration
	// CheckpointEvery is the per-engine in-memory checkpoint period in
	// observations (default 500 when RestartAfter is set).
	CheckpointEvery int64
}

// EngineStats summarizes one engine's run.
type EngineStats struct {
	// Engine is the engine index.
	Engine int
	// Processed counts observations absorbed (including warm-up).
	Processed int64
	// Outliers counts observations flagged by the robust weighting.
	Outliers int64
	// SnapshotsSent and MergesApplied count synchronization activity.
	SnapshotsSent, MergesApplied int64
	// Restarts counts crash recoveries this engine went through.
	Restarts int64
	// ResumedFromCheckpoint reports whether the latest restart replayed a
	// checkpoint (false for a cold restart before the first checkpoint).
	ResumedFromCheckpoint bool
	// Final is the engine's eigensystem at end of stream (nil if the
	// engine never initialized).
	Final *core.Eigensystem
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Engines holds per-engine statistics, indexed by engine id.
	Engines []EngineStats
	// Merged is the MergeMany reduction of every initialized engine's
	// final eigensystem (nil when none initialized).
	Merged *core.Eigensystem
	// Metrics is the stream-level profiler output.
	Metrics []stream.MetricsSnapshot
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// TuplesIn counts tuples the source emitted.
	TuplesIn int64
	// Failures lists operator failures observed during the run.
	Failures []stream.NodeFailure
	// Restarts counts engines successfully revived from checkpoint.
	Restarts int64
	// FaultLog is the concatenated injector event log in engine order —
	// byte-identical across runs with the same seeds and source.
	FaultLog string
	// Wire holds the per-edge transport counters of a distributed run
	// (nil for the in-process runtime).
	Wire []wire.EdgeStats
	// Retunes counts adaptive-batching moves (0 unless AdaptiveBatch).
	Retunes int64
	// FinalBatch and FinalFlush are the adaptive tuner's last operating
	// point (zero unless AdaptiveBatch).
	FinalBatch int
	FinalFlush time.Duration
}

// Throughput returns tuples per second over the whole run.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TuplesIn) / r.Elapsed.Seconds()
}

// Run executes the pipeline until the source is exhausted, then returns the
// per-engine and merged results. ctx cancels an in-flight run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Source == nil {
		return nil, errors.New("pipeline: Source is required")
	}
	if cfg.NumEngines <= 0 {
		cfg.NumEngines = 1
	}
	if cfg.SyncFactor == 0 {
		cfg.SyncFactor = 1.5
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 64
	}
	engCfg := cfg.Engine
	if err := engCfg.Validate(); err != nil {
		return nil, err
	}

	chaos := cfg.Chaos
	var ckptEvery int64
	if chaos != nil {
		for _, plan := range chaos.Edge {
			if err := plan.Validate(); err != nil {
				return nil, fmt.Errorf("pipeline: chaos edge plan: %w", err)
			}
		}
		for _, plan := range chaos.Engine {
			if err := plan.Validate(); err != nil {
				return nil, fmt.Errorf("pipeline: chaos engine plan: %w", err)
			}
		}
		ckptEvery = chaos.CheckpointEvery
		if ckptEvery <= 0 && chaos.RestartAfter > 0 {
			ckptEvery = 500
		}
	}

	// Tuple and frame buffers are pooled between the source and the engines
	// unless a chaos plan is active (injectors may duplicate messages, which
	// breaks the single-consumer ownership the pools rely on — see tuplePool).
	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}
	// Buffer is denominated in tuples; under batched transport one queued
	// message holds a whole frame, so the per-node channel depth shrinks by
	// the batch factor. Without this, Batch would silently multiply the
	// pipeline's buffered-tuple capacity ~batch-fold — tens of megabytes of
	// in-flight frame stores whose cache churn erases the transport win.
	nodeBuf := cfg.Buffer
	if batch > 1 {
		nodeBuf = (cfg.Buffer + batch - 1) / batch
		if nodeBuf < 2 {
			nodeBuf = 2
		}
	}
	var pool *tuplePool
	var fpool *framePool
	if chaos == nil {
		if batch > 1 {
			fpool = newFramePool(engCfg.Dim, batch)
		} else {
			pool = newTuplePool(engCfg.Dim)
		}
	}

	// Adaptive batching needs the runtime instrumented even when the caller
	// did not ask for observability: the tuner's signals ARE the per-operator
	// histograms. A private set keeps the instrumentation invisible outside
	// the run; when the caller provides one, the retune trail lands in their
	// journal alongside the sync and failure events.
	obsSet := cfg.Obs
	var tuner *adaptiveTuner
	if cfg.AdaptiveBatch && batch > 1 {
		if obsSet == nil {
			obsSet = obs.NewSet()
		}
		insts := make([]*obs.OpInstruments, cfg.NumEngines)
		for i := range insts {
			insts[i] = obsSet.Op(fmt.Sprintf("pca%d", i))
		}
		tuner = newAdaptiveTuner(batch, cfg.FlushEvery, insts, obsSet.Journal(),
			time.Now().UnixNano())
	}

	n := cfg.NumEngines
	engines := make([]*pcaOperator, n)
	// Engines own parked kernel-pool workers; park them when the run ends —
	// through each operator's current pointer, since restore swaps engines.
	defer func() {
		for _, op := range engines {
			if op != nil {
				op.engine.Close()
			}
		}
	}()
	for i := 0; i < n; i++ {
		en, err := core.NewEngine(engCfg)
		if err != nil {
			return nil, err
		}
		engines[i] = &pcaOperator{
			id: i, engine: en, syncFactor: cfg.SyncFactor,
			cfg: engCfg, ckptEvery: ckptEvery, pool: pool,
		}
		if cfg.Obs != nil {
			inst := cfg.Obs.Engine(i)
			engines[i].inst = inst
			engines[i].journal = cfg.Obs.Journal()
			// In-process both stamps read the same clock, so end-to-end
			// latency needs no offset correction (clock stays nil).
			engines[i].e2e = cfg.Obs.E2E()
			en.SetInstruments(inst)
		}
	}

	g := stream.NewGraph()
	var tuplesIn int64
	srcFn := sourceFunc(cfg.Source, engCfg.Dim, batch, cfg.FlushEvery, fpool, pool, &tuplesIn, 0, tuner)
	src := g.AddSource("source", srcFn)
	// Chaos also turns the split's spill-over off: it follows queue depths,
	// so same-seed runs would differ in what crosses each faulted edge.
	split := g.Add("split", &stream.Split{N: n, Policy: cfg.Split, Seed: cfg.Seed, NoSpill: chaos != nil},
		stream.WithBuffer(nodeBuf))
	if err := g.Connect(src, 0, split, 0); err != nil {
		return nil, err
	}

	engIDs := make([]stream.NodeID, n)
	injectors := make([]*fault.Injector, n)
	for i, op := range engines {
		opts := []stream.Option{stream.WithBuffer(nodeBuf)}
		if cfg.FuseEnginesPerPE > 0 {
			opts = append(opts, stream.WithPE(i/cfg.FuseEnginesPerPE))
		}
		var node stream.Operator = op
		if chaos != nil {
			if plan, ok := chaos.Engine[i]; ok {
				node = fault.WrapOperator(op, plan)
			}
		}
		engIDs[i] = g.Add(fmt.Sprintf("pca%d", i), node, opts...)
		if err := g.Connect(split, i, engIDs[i], portData); err != nil {
			return nil, err
		}
		if chaos != nil {
			if plan, ok := chaos.Edge[i]; ok {
				inj := fault.NewInjector(plan)
				if err := g.TapEdge(split, i, engIDs[i], portData, inj); err != nil {
					return nil, err
				}
				injectors[i] = inj
			}
		}
	}

	// Synchronization fabric: ticker → controller → engines (control), and
	// engine → engine snapshot loop edges. The controller is kept visible to
	// the failure supervisor so crashed engines are excluded from sync plans.
	var ctl *syncctl.Controller
	if cfg.SyncEvery > 0 && n > 1 {
		tick := g.AddSource("sync-ticker", stream.Ticker(cfg.SyncEvery))
		ctl = &syncctl.Controller{
			N: n, Strategy: cfg.SyncStrategy, GroupSize: cfg.SyncGroupSize,
		}
		if cfg.Obs != nil {
			ctl.Inst = cfg.Obs.Sync()
		}
		ctlID := g.Add("sync-controller", ctl)
		if err := g.Connect(tick, 0, ctlID, 0); err != nil {
			return nil, err
		}
		for i := range engines {
			// Control commands reach every engine over loop edges (the
			// controller is upstream of nothing in the data sense).
			if err := g.ConnectLoop(ctlID, 0, engIDs[i], portControl); err != nil {
				return nil, err
			}
			// Snapshots fan out to all peers; receivers filter on To.
			for j := range engines {
				if i == j {
					continue
				}
				if err := g.ConnectLoop(engIDs[i], portSnapshotOut, engIDs[j], portSnapshot); err != nil {
					return nil, err
				}
			}
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Failure supervisor: a crashed engine is excluded from sync plans
	// immediately; if RestartAfter is set, it is revived from its last
	// checkpoint on its own PE goroutine and re-enters the sync rotation.
	// Registered whenever chaos or observability is on — an instrumented
	// run journals failures and revivals even without injected faults.
	var restarts atomic.Int64
	if chaos != nil || cfg.Obs != nil {
		engineOf := make(map[stream.NodeID]int, n)
		for i, id := range engIDs {
			engineOf[id] = i
		}
		var journal *obs.Journal
		if cfg.Obs != nil {
			journal = cfg.Obs.Journal()
		}
		g.OnNodeFailure(func(f stream.NodeFailure) {
			idx, ok := engineOf[f.Node]
			if !ok {
				return
			}
			if journal != nil {
				journal.Append(obs.Event{
					Kind: obs.EvNodeFailure, Node: f.Name, Engine: idx,
				})
			}
			if ctl != nil {
				ctl.MarkFailed(idx)
			}
			if chaos == nil || chaos.RestartAfter <= 0 {
				return
			}
			go func() {
				t := time.NewTimer(chaos.RestartAfter)
				defer t.Stop()
				select {
				case <-t.C:
				case <-runCtx.Done():
					return
				}
				err := g.Revive(f.Node, func() {
					engines[idx].restore()
					if ctl != nil {
						ctl.MarkRecovered(idx)
					}
				})
				if err == nil {
					restarts.Add(1)
					if journal != nil {
						journal.Append(obs.Event{
							Kind: obs.EvNodeRevive, Node: f.Name, Engine: idx,
						})
					}
				}
			}()
		})
	}

	// Result sink: collects each engine's flush-time Result and cancels the
	// run once every result edge has drained — Flush fires even when a
	// crashed engine never emitted its Result, so graphs with a live sync
	// ticker still terminate deterministically.
	var final []EngineStats
	sink := &stream.Collect{
		OnItem: func(msg stream.Message) {
			res := msg.(stream.Result)
			final = append(final, res.Payload.(EngineStats))
		},
		OnFlush: cancel,
	}
	snk := g.Add("sink", sink)
	for i := range engines {
		if err := g.Connect(engIDs[i], portResult, snk, 0); err != nil {
			return nil, err
		}
	}

	if obsSet != nil {
		// Per-operator histograms on the runtime, and a counter adapter so
		// the exposition layer can serve live message/tuple/drop tallies
		// without obs importing stream.
		g.Instrument(obsSet)
		obsSet.SetOpCounters(func() []obs.OpCounters {
			ms := g.Metrics()
			out := make([]obs.OpCounters, len(ms))
			for i, m := range ms {
				out[i] = obs.OpCounters{
					Name: m.Name, In: m.In, Out: m.Out,
					TuplesIn: m.TuplesIn, TuplesOut: m.TuplesOut,
					Dropped: m.Dropped, BusyNs: int64(m.Busy),
					QueueLen: int64(m.QueueLen),
				}
			}
			return out
		})
	}

	start := time.Now()
	err := g.Run(runCtx)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, err
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}

	res := &Result{
		Engines:  make([]EngineStats, n),
		Metrics:  g.Metrics(),
		Elapsed:  elapsed,
		TuplesIn: tuplesIn,
		Failures: g.Failures(),
		Restarts: restarts.Load(),
	}
	if tuner != nil {
		res.Retunes = tuner.Retunes()
		res.FinalBatch = tuner.targetBatch()
		res.FinalFlush = tuner.targetFlush()
	}
	if chaos != nil {
		var b strings.Builder
		for i, inj := range injectors {
			if inj == nil {
				continue
			}
			fmt.Fprintf(&b, "# engine %d\n", i)
			b.WriteString(inj.Log())
		}
		res.FaultLog = b.String()
	}
	for _, st := range final {
		res.Engines[st.Engine] = st
	}
	var systems []*core.Eigensystem
	for _, st := range res.Engines {
		if st.Final != nil {
			systems = append(systems, st.Final)
		}
	}
	if len(systems) > 0 {
		merged, mErr := core.MergeMany(systems)
		if mErr == nil {
			res.Merged = merged
		}
	}
	return res, nil
}
