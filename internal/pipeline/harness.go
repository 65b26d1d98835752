package pipeline

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"streampca/internal/core"
)

// The wire harness boots an N-process localhost cluster by re-executing the
// current binary: a launcher (a test binary or cmd/wireharness) sets
// WorkerEnv to a JSON WorkerSpec and spawns itself N times; each child sees
// the variable, becomes a worker, prints its bound address as the first
// stdout line and serves coordinator sessions. The launcher scrapes the
// ready lines and hands the address list to RunCoordinator.

// WorkerEnv is the environment variable that turns a re-executed binary
// into a wire worker.
const WorkerEnv = "STREAMPCA_WIRE_WORKER"

// readyPrefix is the line a worker prints once it listens.
const readyPrefix = "wire: listening on "

// WorkerSpec is the JSON-serializable subset of a worker's configuration
// that crosses the exec boundary. Engine options that are interfaces (the
// robust loss) stay at their defaults.
type WorkerSpec struct {
	// Dim, Components, Extra, Alpha and InitSize populate core.Config.
	Dim, Components, Extra int
	Alpha                  float64
	InitSize               int
	// SyncFactor is the 1.5·N independence multiplier (default 1.5).
	SyncFactor float64
	// Batch sizes the receive pool.
	Batch int
	// Sessions is how many coordinator sessions to serve before exiting
	// (0 = serve forever).
	Sessions int
	// ReportEvery, when positive, turns on the worker's telemetry plane
	// (see WorkerConfig.ReportEvery). Serialized as nanoseconds.
	ReportEvery time.Duration
}

// Config converts the spec into the worker's engine configuration.
func (ws WorkerSpec) Config() core.Config {
	return core.Config{
		Dim: ws.Dim, Components: ws.Components, Extra: ws.Extra,
		Alpha: ws.Alpha, InitSize: ws.InitSize,
	}
}

// WorkerFromEnv turns the current process into a wire worker when
// WorkerEnv is set: it listens on a kernel-chosen localhost port, prints
// the ready line to stdout and serves the configured sessions. Returns
// false immediately when the variable is unset. Call it first thing in
// main (or TestMain) of any binary used as a harness launcher.
func WorkerFromEnv(ctx context.Context) (bool, error) {
	raw := os.Getenv(WorkerEnv)
	if raw == "" {
		return false, nil
	}
	var ws WorkerSpec
	if err := json.Unmarshal([]byte(raw), &ws); err != nil {
		return true, fmt.Errorf("pipeline: bad %s: %w", WorkerEnv, err)
	}
	cfg := WorkerConfig{
		Engine: ws.Config(), SyncFactor: ws.SyncFactor, Batch: ws.Batch,
		ReportEvery: ws.ReportEvery,
	}
	err := RunWorker(ctx, "127.0.0.1:0", ws.Sessions, cfg, func(a net.Addr) {
		fmt.Printf("%s%s\n", readyPrefix, a)
	})
	return true, err
}

// Cluster is a set of spawned worker processes.
type Cluster struct {
	// Addrs lists the workers' TCP addresses in spawn order; pass it to
	// DistConfig.Workers.
	Addrs []string

	procs []*exec.Cmd
	wg    sync.WaitGroup
}

// LaunchWorkers starts n copies of the current executable as wire workers at
// once, then collects each one's ready line; if any fails, all are killed and
// reaped. Call Shutdown when done; a cluster whose workers serve a finite
// session count exits on its own and Shutdown merely reaps it.
func LaunchWorkers(ctx context.Context, n int, spec WorkerSpec) (*Cluster, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	c := &Cluster{}
	outs := make([]io.ReadCloser, n)
	for i := range outs {
		cmd := exec.CommandContext(ctx, bin)
		cmd.Env = append(os.Environ(), WorkerEnv+"="+string(payload))
		cmd.Stderr = os.Stderr
		if outs[i], err = cmd.StdoutPipe(); err == nil {
			err = cmd.Start()
		}
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.procs = append(c.procs, cmd)
	}
	for i, out := range outs {
		sc := bufio.NewScanner(out)
		addr := ""
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, readyPrefix) {
				addr = strings.TrimPrefix(line, readyPrefix)
				break
			}
		}
		if addr == "" {
			c.Shutdown()
			return nil, fmt.Errorf("pipeline: worker %d exited before its ready line (%v)", i, sc.Err())
		}
		c.Addrs = append(c.Addrs, addr)
		// Keep draining the child's stdout so it never blocks on a full
		// pipe; the goroutine ends when the child exits and closes it.
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			io.Copy(io.Discard, out)
		}()
	}
	return c, nil
}

// Shutdown kills any still-running workers and reaps them all.
func (c *Cluster) Shutdown() {
	for _, p := range c.procs {
		if p.Process != nil {
			p.Process.Kill()
		}
	}
	for _, p := range c.procs {
		p.Wait()
	}
	c.wg.Wait()
}

// Wait blocks until every worker process has exited on its own (useful
// with a finite Sessions spec) and returns the first non-nil exit error.
func (c *Cluster) Wait() error {
	var first error
	for _, p := range c.procs {
		if err := p.Wait(); err != nil && first == nil {
			first = err
		}
	}
	c.wg.Wait()
	return first
}
