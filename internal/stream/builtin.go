package stream

import (
	"context"
	"math"
	"math/rand/v2"
	"time"
)

// SplitPolicy selects how the threaded split distributes tuples across its
// output ports.
type SplitPolicy int

const (
	// SplitRandom sends each tuple to a uniformly random output — the
	// paper's load balancer ("Each new data tuple is being sent to a random
	// running PCA engine") — but spills it to the output with the most free
	// queue room when the drawn one is full, so an engine that keeps up takes
	// what a stalled one cannot. It waits only while every output is full.
	SplitRandom SplitPolicy = iota
	// SplitRoundRobin cycles deterministically through the outputs.
	SplitRoundRobin
)

// Split is the multithreaded split operator of §III-A2: it fans a single
// input stream out to n engine streams, balancing load. Output ports are
// 0..N-1.
type Split struct {
	// N is the number of output ports.
	N int
	// Policy selects the distribution rule (default SplitRandom).
	Policy SplitPolicy
	// Seed makes SplitRandom's draws reproducible.
	Seed uint64
	// NoSpill keeps SplitRandom purely seeded: a full destination queue
	// blocks the split instead of spilling. Runs that inject faults set it,
	// so the seed alone decides which messages cross each edge.
	NoSpill bool

	rng  *rand.Rand
	next int
	// Run sets queues to each port's destination queues that a send can
	// block on (fused and loop ones cannot), sends wake a token after each
	// read of one and closes done on cancellation; unset, all ports have room.
	queues map[int][]chan envelope
	wake   chan struct{}
	done   <-chan struct{}
}

// Process implements Operator.
func (s *Split) Process(_ int, msg Message, emit Emit) {
	if s.N <= 0 {
		return
	}
	if _, ok := msg.(Barrier); ok {
		// Checkpoint barriers are broadcast, not balanced: every engine must
		// see the marker so the cut covers the whole stream prefix.
		for p := 0; p < s.N; p++ {
			emit(p, msg)
		}
		return
	}
	var port int
	switch s.Policy {
	case SplitRoundRobin:
		port = s.next
		s.next = (s.next + 1) % s.N
	default:
		if s.rng == nil {
			s.rng = rand.New(rand.NewPCG(s.Seed, 0x5917))
		}
		port = s.rng.IntN(s.N)
		if !s.NoSpill && s.room(port) == 0 {
			port = s.spill(port)
		}
	}
	emit(port, msg)
}

// room returns the free slots of port's fullest destination queue.
func (s *Split) room(port int) int {
	free := math.MaxInt
	for _, q := range s.queues[port] {
		free = min(free, cap(q)-len(q))
	}
	return free
}

// spill returns the output with the most free room, waiting while every
// output is full. A cancelled run gets the drawn port.
func (s *Split) spill(port int) int {
	for {
		best, most := port, 0
		for p := 0; p < s.N; p++ {
			if r := s.room(p); r > most {
				best, most = p, r
			}
		}
		if most > 0 {
			return best
		}
		select {
		case <-s.wake:
		case <-s.done:
			return port
		}
	}
}

// Flush implements Operator.
func (s *Split) Flush(Emit) {}

// Ticker returns a SourceFunc that emits Control-less tick messages (the
// message is the tick index as int64) at the given period until ctx is
// cancelled. It backs the Throttle-driven sync signal generator (§III-B).
func Ticker(period time.Duration) SourceFunc {
	return func(ctx context.Context, emit Emit) error {
		t := time.NewTicker(period)
		defer t.Stop()
		var i int64
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				emit(0, i)
				i++
			}
		}
	}
}

// CounterSource returns a SourceFunc that pulls n items from next and emits
// them as fast as downstream accepts; next is called exactly once per item.
// n < 0 streams forever (until cancellation).
func CounterSource(n int64, next func(seq int64) Message) SourceFunc {
	return func(ctx context.Context, emit Emit) error {
		for seq := int64(0); n < 0 || seq < n; seq++ {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			emit(0, next(seq))
		}
		return nil
	}
}

// Throttle is the standard rate-limiting operator: it forwards every
// message but sleeps as needed so the output rate never exceeds Rate
// messages per second. The paper uses it to pace synchronization tuples
// ("Adjusting the Throttle operator timing helps finding the balance
// between the overall cluster performance and eigensystems consistency").
type Throttle struct {
	// Rate is the maximum output rate in messages/second; <= 0 forwards
	// unthrottled.
	Rate float64

	last time.Time
}

// Process implements Operator.
func (t *Throttle) Process(_ int, msg Message, emit Emit) {
	if t.Rate > 0 {
		minGap := time.Duration(float64(time.Second) / t.Rate)
		now := time.Now()
		if !t.last.IsZero() {
			if wait := minGap - now.Sub(t.last); wait > 0 {
				time.Sleep(wait)
				now = now.Add(wait)
			}
		}
		t.last = now
	}
	emit(0, msg)
}

// Flush implements Operator.
func (t *Throttle) Flush(Emit) {}

// Collect is a sink operator appending every arriving message to a slice.
// It is safe only for single-PE use (like any operator); read Items after
// Run returns.
type Collect struct {
	// Items accumulates the received messages in arrival order.
	Items []Message
	// OnItem, when non-nil, is called for each arriving message (e.g. to
	// stop the run after N results via a context cancel).
	OnItem func(msg Message)
	// OnFlush, when non-nil, runs once all the sink's data inputs reached
	// end-of-stream — the reliable termination hook even when an upstream
	// node failed and never produced its result.
	OnFlush func()
}

// Process implements Operator.
func (c *Collect) Process(_ int, msg Message, _ Emit) {
	c.Items = append(c.Items, msg)
	if c.OnItem != nil {
		c.OnItem(msg)
	}
}

// Flush implements Operator.
func (c *Collect) Flush(Emit) {
	if c.OnFlush != nil {
		c.OnFlush()
	}
}
