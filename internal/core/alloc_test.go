package core

import (
	"math/rand/v2"
	"testing"
)

// TestObserveZeroAllocsSteadyState asserts the initialized engine's Observe
// is allocation free — the workspace contract this PR's performance rests
// on. The run spans a ReorthEvery boundary so the periodic
// re-orthonormalization path is covered too.
func TestObserveZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	m := newModel(rng, 80, 3, []float64{9, 4, 1}, 0.05)
	en, err := NewEngine(Config{Dim: 80, Components: 3, Alpha: 1 - 1.0/500, ReorthEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	xs := m.samples(256)
	for i := 0; i <= en.Config().InitSize; i++ {
		if _, err := en.Observe(xs[i%len(xs)]); err != nil {
			t.Fatal(err)
		}
	}
	if !en.Ready() {
		t.Fatal("engine not ready after warm-up")
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		en.Observe(xs[i%len(xs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocated %v times per run", allocs)
	}
}

// TestLocationObserveZeroAllocs asserts the location analytic's steady
// state is also allocation free.
func TestLocationObserveZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 2))
	m := newModel(rng, 40, 2, []float64{4, 1}, 0.1)
	le, err := NewLocationEngine(LocationConfig{Dim: 40})
	if err != nil {
		t.Fatal(err)
	}
	xs := m.samples(128)
	for i := 0; i < 32; i++ {
		if _, err := le.Observe(xs[i%len(xs)]); err != nil {
			t.Fatal(err)
		}
	}
	if !le.Ready() {
		t.Fatal("location engine not ready after warm-up")
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		le.Observe(xs[i%len(xs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state location Observe allocated %v times per run", allocs)
	}
}

// TestObserveMaskedZeroAllocsSteadyState asserts a ready engine absorbs a
// gappy row without allocating: the least-squares patch runs in the
// workspace's patch scratch and the patched row feeds the update directly.
func TestObserveMaskedZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 3))
	const d = 80
	m := newModel(rng, d, 3, []float64{9, 4, 1}, 0.05)
	en, err := NewEngine(Config{Dim: d, Components: 3, Extra: 2, Alpha: 1 - 1.0/500, ReorthEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	xs := m.samples(256)
	for i := 0; !en.Ready(); i++ {
		if _, err := en.Observe(xs[i%len(xs)]); err != nil {
			t.Fatal(err)
		}
	}
	masks := make([][]bool, 16)
	for j := range masks {
		masks[j] = randomMask(rng, d, 0.4)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		en.ObserveMasked(xs[i%len(xs)], masks[i%len(masks)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveMasked allocated %v times per run", allocs)
	}
}
