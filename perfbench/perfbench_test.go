package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"streampca/internal/pipeline"
)

func TestMain(m *testing.M) {
	// The wire workload re-executes the test binary as its workers.
	if isWorker, err := pipeline.WorkerFromEnv(context.Background()); isWorker {
		if err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %q, code %q", i, b.Workloads[i], w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("metric counts: json %d/%d, code %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, d := range endToEndMetrics {
		j := b.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end_to_end %d: json %+v, code %+v", i, j, d)
		}
	}
	for i, d := range perLayerMetrics {
		j := b.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per_layer %d: json %+v, code %+v", i, j, d)
		}
		if d.moves == "" {
			t.Errorf("per_layer %s names no end-to-end metric it should move", d.name)
		}
	}
}

// toy shrinks a workload so a run takes a fraction of a second.
func toy(w workload) workload {
	w.ringRows, w.sessionTuples = 600, 3000
	if w.gappy {
		w.sessionTuples = 400
	}
	w.sessionFloor, w.meanFloor = 0, 0
	return w
}

// runToy runs one toy-size invocation and returns the printed result.
func runToy(t *testing.T, w workload, trace bool) (report, runInfo) {
	t.Helper()
	cfg := runConfig{w: w, seed: 7, budget: time.Millisecond, trace: trace, outDir: t.TempDir()}
	rep, info, err := execute(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printResult(&out, info, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return got, info
}

func TestToyRunsPrintEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			if trace && w.wire && testing.Short() {
				continue
			}
			got, info := runToy(t, toy(w), trace)
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, trace, got.Correct, got.Attempted, got.Failed, info.Errors)
			}
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
				if _, err := os.Stat(info.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.name, trace, len(got.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := got.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %s", w.name, trace, name, m, unit)
				}
			}
			if !trace {
				for _, name := range []string{"tuples_per_s", "tuples_per_cpu_s", "setup_s", "affinity", "delivered_frac", "max_rss_mb"} {
					if got.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, name, got.Metrics[name].Value)
					}
				}
			}
		}
	}
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	w := toy(workloads()[0])
	w.sessionFloor = 1.5 // unreachable: every session fails its check
	got, info := runToy(t, w, false)
	if got.Correct || got.Failed != got.Attempted || len(info.Errors) != got.Failed {
		t.Fatalf("correct=%v attempted=%d failed=%d errors=%d", got.Correct, got.Attempted, got.Failed, len(info.Errors))
	}
	var stdout, stderr bytes.Buffer
	if code := finish(&stdout, &stderr, info, got); code == 0 {
		t.Fatal("a failed check exited 0")
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,70) that overlap on
	// [30,40); a has child c [15,25); b's child d [60,90) runs past b.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 70},
		{ID: 3, Parent: 1, Start: 15, End: 25},
		{ID: 4, Parent: 2, Start: 60, End: 90},
	}
	want := []int64{100 - 60, 30 - 10, 40 - 10, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}
