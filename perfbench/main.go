// Command perfbench is the repository benchmark. Each invocation runs one
// workload for a fixed time and prints, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload steady-block --seed 1 --seconds 30 --trace 0
//
// --trace 0 runs untraced sessions of the system (pipeline.Run, or
// RunCoordinator over freshly launched worker processes) and reports the
// end-to-end metrics. --trace 1 runs a few untraced sessions for their
// counters, then replays the workload's inputs through the public calls of
// ingest, stream, core, mat, eig and wire with a span around each call,
// reports the per-layer metrics and writes the spans under --out.
//
// Inputs are generated from --seed before any clock starts. Every session's
// outputs are checked; a failed check counts as a failed operation and the
// command exits 1. perfbench re-executes itself as the wire workers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"streampca/internal/pipeline"
)

func main() {
	if isWorker, err := pipeline.WorkerFromEnv(context.Background()); isWorker {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (steady-block, wire-block, gappy-scalar)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	out := fs.String("out", ".bench_build/spans", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload <name>, --seconds > 0 and --trace 0|1:", err)
		return 2
	}
	cfg := runConfig{
		w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, outDir: *out,
	}
	rep, info, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return finish(stdout, stderr, info, rep)
}

// finish prints the result and returns the exit code: 1 when any output
// check failed.
func finish(stdout, stderr io.Writer, info runInfo, rep report) int {
	if err := printResult(stdout, info, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		for _, e := range info.Errors {
			fmt.Fprintln(stderr, "perfbench: check failed:", e)
		}
		return 1
	}
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	w      workload
	seed   uint64
	budget time.Duration
	trace  bool
	outDir string
}

// runInfo is printed on the line before the result: what produced it.
type runInfo struct {
	Fingerprint fingerprint   `json:"fingerprint"`
	Sessions    []sessionInfo `json:"sessions"`
	Errors      []string      `json:"errors,omitempty"`
	SpanFile    string        `json:"span_file,omitempty"`
}

type sessionInfo struct {
	Tuples   int64   `json:"tuples"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	SetupS   float64 `json:"setup_s"`
	Affinity float64 `json:"affinity"`
	Steal    float64 `json:"steal"`
}

// execute generates the inputs and runs the untraced or the traced mode.
func execute(ctx context.Context, cfg runConfig) (report, runInfo, error) {
	in, err := makeInputs(cfg.w, cfg.seed)
	if err != nil {
		return report{}, runInfo{}, fmt.Errorf("generating inputs: %w", err)
	}
	info := runInfo{Fingerprint: hostFingerprint(cfg.w, cfg.seed, in)}
	var sessions []session
	var rep report
	if cfg.trace {
		var vals map[string]float64
		vals, sessions, info.SpanFile, err = traced(ctx, cfg, in, info.Fingerprint)
		if err != nil {
			return report{}, info, err
		}
		rep = newReport(perLayerMetrics, vals)
	} else {
		sessions = runSessions(ctx, cfg.w, in, cfg.seed, cfg.budget, 3)
		rep = newReport(endToEndMetrics, endToEnd(sessions))
	}
	rep.Attempted = len(sessions)
	for _, s := range sessions {
		info.Sessions = append(info.Sessions, sessionInfo{
			Tuples: s.tuples, WallS: s.wall.Seconds(), CPUS: s.cpu().Seconds(),
			SetupS: s.setup.Seconds(), Affinity: s.affinity, Steal: s.steal,
		})
		if s.err != nil {
			rep.Failed++
			info.Errors = append(info.Errors, s.err.Error())
		}
	}
	if err := checkRun(cfg.w, sessions); err != nil {
		rep.Failed++
		info.Errors = append(info.Errors, err.Error())
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, info, nil
}

func printResult(w io.Writer, info runInfo, rep report) error {
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	res, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, res)
	return err
}
