package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streampca/internal/mat"
)

// usage is a point-in-time reading of getrusage for this process and for
// its reaped children (the wire workers), plus the machine's CPU ticks.
type usage struct {
	self, children       time.Duration
	selfRSSKiB, childKiB int64
	// stealTicks and allTicks are /proc/stat's cumulative stolen and total
	// CPU ticks over every CPU: time a hypervisor gave the CPUs to other
	// guests. Zero where /proc/stat is unavailable.
	stealTicks, allTicks int64
}

// stealFrac is the share of CPU time stolen between two readings.
func stealFrac(a, b usage) float64 {
	if b.allTicks <= a.allTicks {
		return 0
	}
	return float64(b.stealTicks-a.stealTicks) / float64(b.allTicks-a.allTicks)
}

// cpuTicks reads the aggregate cpu line of /proc/stat: user nice system
// idle iowait irq softirq steal ...
func cpuTicks() (steal, all int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user and nice
			all += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, all
}

func readUsage() usage {
	var s, c syscall.Rusage
	// Getrusage cannot fail for these two well-formed requests on Linux;
	// a zero reading would only show as an implausible metric.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &c)
	cpu := func(r *syscall.Rusage) time.Duration {
		return time.Duration(r.Utime.Nano() + r.Stime.Nano())
	}
	u := usage{
		self: cpu(&s), children: cpu(&c),
		selfRSSKiB: int64(s.Maxrss), childKiB: int64(c.Maxrss),
	}
	u.stealTicks, u.allTicks = cpuTicks()
	return u
}

// fingerprint identifies the host, the code and the inputs behind a
// result, so two results are compared only when they should be.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is a SHA-256 over the checkout's Go sources and module files:
	// the benchmark runs from a plain checkout, which carries no VCS data.
	Commit      string `json:"commit"`
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	InputDigest string `json:"input_digest"`
	// BlockWidth and PoolMinWork are this process's start-up calibration:
	// the rank-c width mat.BlockSize picks for the workload's engine shape
	// and the serial/parallel crossover of a GOMAXPROCS-wide kernel pool.
	// Both vary between processes on one host; they are recorded, not
	// pinned, so the benchmark measures the program users run. Wire
	// workers calibrate for themselves.
	BlockWidth  int `json:"block_width"`
	PoolMinWork int `json:"pool_min_work"`
}

// calibration reports mat.BlockSize for the engine shape and the MinWork
// of a freshly calibrated default-width pool.
func calibration(w workload) (blockWidth, minWork int) {
	k := w.engine.Components + w.engine.Extra
	pool := mat.NewPool(0)
	defer pool.Close()
	return mat.BlockSize(w.engine.Dim, k, blockMax), pool.MinWork()
}

// blockMax is the engine's cap on the rank-c width (core's blockMax).
const blockMax = 16

func hostFingerprint(w workload, seed uint64, in *inputs) fingerprint {
	bw, mw := calibration(w)
	return fingerprint{
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      sourceDigest("."),
		Workload:    w.name,
		Seed:        seed,
		InputDigest: in.digest,
		BlockWidth:  bw,
		PoolMinWork: mw,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in path
// order, skipping hidden directories (build outputs live there).
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, filepath.ToSlash(p)+"\n")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
