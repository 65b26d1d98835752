package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// envelope is the unit moved through processing-element queues.
type envelope struct {
	to   *node
	port int
	msg  Message
	eos  bool // end-of-stream marker for one non-loop inbound edge of `to`
	// revive clears the target node's failed state; reviveFn (optional)
	// runs first, on the PE goroutine, to restore operator state.
	revive   bool
	reviveFn func()
}

// peRuntime executes all operators fused onto one processing element.
type peRuntime struct {
	in    chan envelope
	nodes []*node
	// pendingEOS is the number of channel-borne EOS envelopes this PE still
	// expects (non-loop cross-PE in-edges plus bootstrap flushes); the
	// goroutine exits when it reaches zero.
	pendingEOS int
	done       map[NodeID]bool
	// failed marks nodes whose operator panicked; they drop traffic (but
	// still honor the EOS protocol) until revived. Owned by the PE
	// goroutine.
	failed map[NodeID]bool
	// eosSeen counts non-loop EOS per node (channel and fused combined).
	eosSeen map[NodeID]int
	// wakes get a token on every receive, for the splits sending into in.
	wakes []chan struct{}
	run   *runtime
}

// runtime is the live state of a running graph.
type runtime struct {
	g      *Graph
	pes    map[int]*peRuntime // pe id → runtime
	peOf   map[NodeID]*peRuntime
	ctx    context.Context
	cancel context.CancelFunc
}

// Run executes the graph until every source has finished and all data
// (non-loop) edges have drained, or until ctx is cancelled — the normal way
// to stop an endless or cyclic pipeline, in which case Run returns
// ctx.Err(). It may be called once.
//
// Termination protocol: end-of-stream travels only over non-loop edges.
// Operators flush once all their non-loop inputs have ended; nodes whose
// inputs are exclusively loop edges (pure synchronization fabric) never
// flush on their own and stop at cancellation. Graphs whose control fabric
// is driven by a non-terminating source (e.g. a sync ticker) therefore
// terminate via ctx cancellation, which the paper's endless-stream setting
// makes the natural mode anyway.
func (g *Graph) Run(ctx context.Context) error {
	if g.ran {
		return errors.New("stream: graph already ran")
	}
	g.ran = true
	if err := g.validate(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rt := &runtime{
		g: g, pes: make(map[int]*peRuntime), peOf: make(map[NodeID]*peRuntime),
		ctx: ctx, cancel: cancel,
	}
	defer func() {
		g.mu.Lock()
		g.live = nil
		g.mu.Unlock()
	}()

	// Assign PEs: explicit ids share a runtime; pe < 0 and sources get
	// dedicated ones.
	next := 1 << 20 // dedicated ids above any plausible user id
	for _, n := range g.nodes {
		pe := n.pe
		if pe < 0 || n.src != nil {
			pe = next
			next++
		}
		p := rt.pes[pe]
		if p == nil {
			p = &peRuntime{
				done:    make(map[NodeID]bool),
				failed:  make(map[NodeID]bool),
				eosSeen: make(map[NodeID]int),
				run:     rt,
			}
			rt.pes[pe] = p
		}
		p.nodes = append(p.nodes, n)
		rt.peOf[n.id] = p
	}
	// Size each PE queue and count expected channel EOS.
	for _, p := range rt.pes {
		buf := 0
		for _, n := range p.nodes {
			buf += n.buf
		}
		if buf < 1 {
			buf = 1
		}
		p.in = make(chan envelope, buf)
	}
	for _, e := range g.edges {
		if e.loop {
			continue
		}
		if rt.peOf[e.from.id] != rt.peOf[e.to.id] || e.from.src != nil {
			rt.peOf[e.to.id].pendingEOS++
		}
	}
	for _, n := range g.nodes {
		if n.src == nil && n.inbound == 0 {
			rt.peOf[n.id].pendingEOS++ // bootstrap flush below
		}
	}

	for _, n := range g.nodes {
		s, ok := n.op.(*Split)
		if !ok {
			continue
		}
		s.queues, s.wake, s.done = make(map[int][]chan envelope), make(chan struct{}, 1), ctx.Done()
		for port, es := range n.outs {
			for _, e := range es {
				if dst := rt.peOf[e.to.id]; !e.loop && dst != rt.peOf[n.id] {
					s.queues[port] = append(s.queues[port], dst.in)
					dst.wakes = append(dst.wakes, s.wake)
				}
			}
		}
	}
	// Publish the runtime only after the PE maps and queues exist: Revive and
	// the queue-aware Metrics read rt.peOf/p.in through g.live concurrently.
	g.mu.Lock()
	g.live = rt
	g.mu.Unlock()

	var wg sync.WaitGroup
	errCh := make(chan error, len(g.nodes))

	// Operator PEs.
	for _, p := range rt.pes {
		if p.isSourceOnly() {
			continue
		}
		wg.Add(1)
		go func(p *peRuntime) {
			defer wg.Done()
			p.loop()
		}(p)
	}
	// Sources.
	for _, n := range g.nodes {
		if n.src == nil {
			continue
		}
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			emit := rt.emitter(n)
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						g.recordFailure(NodeFailure{
							Node: n.id, Name: n.name,
							Err: fmt.Errorf("source %q panicked: %v", n.name, r),
						})
					}
				}()
				return n.src(ctx, emit)
			}()
			if err != nil && !errors.Is(err, context.Canceled) {
				errCh <- fmt.Errorf("source %q: %w", n.name, err)
				rt.cancel()
			}
			rt.finishNode(n, nil)
		}(n)
	}
	// Bootstrap flushes for operator nodes with no inbound edges.
	for _, n := range g.nodes {
		if n.src == nil && n.inbound == 0 {
			p := rt.peOf[n.id]
			select {
			case p.in <- envelope{to: n, eos: true, port: -1}:
			case <-ctx.Done():
			}
		}
	}

	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	return ctx.Err()
}

func (p *peRuntime) isSourceOnly() bool {
	for _, n := range p.nodes {
		if n.src == nil {
			return false
		}
	}
	return true
}

// loop is the PE goroutine body: drain envelopes until every expected EOS
// arrived or the run is cancelled.
func (p *peRuntime) loop() {
	for p.pendingEOS > 0 {
		select {
		case env := <-p.in:
			for _, w := range p.wakes {
				select {
				case w <- struct{}{}:
				default:
				}
			}
			if env.revive {
				p.handleRevive(env.to, env.reviveFn)
				continue
			}
			if env.eos {
				p.pendingEOS--
				p.handleEOS(env.to, env.port < 0)
				continue
			}
			p.deliver(env.to, env.port, env.msg)
		case <-p.run.ctx.Done():
			return
		}
	}
}

// handleRevive restores a failed node: fn runs first (on this goroutine,
// so it can safely rebuild operator state), then the failed flag clears.
// Nodes that already flushed stay done.
func (p *peRuntime) handleRevive(n *node, fn func()) {
	if p.done[n.id] || !p.failed[n.id] {
		return
	}
	if fn != nil {
		fn()
	}
	delete(p.failed, n.id)
}

// handleEOS records one non-loop inbound edge completion for n (bootstrap
// flushes arrive with port < 0 and complete zero-input nodes directly).
func (p *peRuntime) handleEOS(n *node, bootstrap bool) {
	if p.done[n.id] {
		return
	}
	if bootstrap {
		if n.inbound == 0 {
			p.finishOperator(n)
		}
		return
	}
	p.eosSeen[n.id]++
	if n.nonLoop > 0 && p.eosSeen[n.id] >= n.nonLoop {
		p.finishOperator(n)
	}
}

// deliver runs one message through an operator, timing it and cascading
// direct-call (fused) emissions. An operator panic is converted into a
// node-failed event: the node drops traffic (counted) until revived, and
// the process keeps running.
func (p *peRuntime) deliver(n *node, port int, msg Message) {
	if p.done[n.id] {
		return // late loop traffic after flush
	}
	if p.failed[n.id] {
		n.metrics.dropped.Add(1)
		return
	}
	n.metrics.in.Add(1)
	w := tupleWeight(msg)
	if w > 0 {
		n.metrics.tuplesIn.Add(w)
	}
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				p.fail(n, fmt.Errorf("operator %q panicked: %v", n.name, r))
			}
		}()
		n.op.Process(port, msg, p.run.emitter(n))
	}()
	dur := int64(time.Since(start))
	n.metrics.busyNs.Add(dur)
	if inst := n.metrics.inst; inst != nil {
		inst.RecordProcess(start.UnixNano(), dur, w, len(p.in))
	}
}

// fail marks n failed and publishes the node-failed event.
func (p *peRuntime) fail(n *node, err error) {
	p.failed[n.id] = true
	p.run.g.recordFailure(NodeFailure{Node: n.id, Name: n.name, Err: err})
}

// finishOperator flushes n and propagates EOS to its downstream non-loop
// edges. Failed nodes skip the flush (their state is not trustworthy) but
// still propagate EOS so the rest of the graph drains normally.
func (p *peRuntime) finishOperator(n *node) {
	if p.done[n.id] {
		return
	}
	p.done[n.id] = true
	if !p.failed[n.id] {
		start := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					p.fail(n, fmt.Errorf("operator %q panicked in flush: %v", n.name, r))
				}
			}()
			n.op.Flush(p.run.emitter(n))
		}()
		n.metrics.busyNs.Add(int64(time.Since(start)))
	}
	p.run.finishNode(n, p)
}

// finishNode sends EOS along every non-loop out-edge of n, after draining
// any edge taps so bounded-delay faults cannot swallow messages at
// end-of-stream. Fused same-PE edges are handled synchronously; channel
// edges get an EOS envelope.
func (rt *runtime) finishNode(n *node, self *peRuntime) {
	for _, es := range n.outs {
		for _, e := range es {
			if e.tap == nil {
				continue
			}
			fwd, dropped := e.tap.Drain()
			if dropped > 0 {
				n.metrics.dropped.Add(int64(dropped))
			}
			n.metrics.out.Add(int64(len(fwd)))
			for _, m := range fwd {
				if w := tupleWeight(m); w > 0 {
					n.metrics.tuplesOut.Add(w)
				}
				rt.sendOnEdge(n, e, m, self)
			}
		}
	}
	for _, es := range n.outs {
		for _, e := range es {
			if e.loop {
				continue
			}
			dst := rt.peOf[e.to.id]
			if dst == self && n.src == nil {
				dst.handleEOS(e.to, false) // fused: synchronous, no envelope
				continue
			}
			select {
			case dst.in <- envelope{to: e.to, port: e.toPort, eos: true}:
			case <-rt.ctx.Done():
			}
		}
	}
}

// sendOnEdge moves one message across e, honoring fusion (direct call),
// loop-edge drop semantics, and cancellation.
func (rt *runtime) sendOnEdge(n *node, e *edge, msg Message, self *peRuntime) {
	dst := rt.peOf[e.to.id]
	if dst == self && n.src == nil {
		dst.deliver(e.to, e.toPort, msg)
		return
	}
	env := envelope{to: e.to, port: e.toPort, msg: msg}
	if e.loop {
		select {
		case dst.in <- env:
		default:
			n.metrics.dropped.Add(1)
		}
		return
	}
	select {
	case dst.in <- env:
	case <-rt.ctx.Done():
	}
}

// emitter returns the Emit closure for node n. Same-PE operator targets are
// invoked directly (fusion); cross-PE targets go through the destination
// queue — blocking for data edges, dropping for loop edges so cycles can
// never deadlock. Tapped edges run every message through their Tap first;
// discarded messages count toward the sender's Dropped metric.
func (rt *runtime) emitter(n *node) Emit {
	self := rt.peOf[n.id]
	return func(port int, msg Message) {
		es := n.outs[port]
		if len(es) == 0 {
			return
		}
		for _, e := range es {
			if e.tap != nil {
				fwd, dropped := e.tap.Tap(msg)
				if dropped > 0 {
					n.metrics.dropped.Add(int64(dropped))
				}
				n.metrics.out.Add(int64(len(fwd)))
				for _, m := range fwd {
					if w := tupleWeight(m); w > 0 {
						n.metrics.tuplesOut.Add(w)
					}
					rt.sendOnEdge(n, e, m, self)
				}
				continue
			}
			n.metrics.out.Add(1)
			if w := tupleWeight(msg); w > 0 {
				n.metrics.tuplesOut.Add(w)
			}
			rt.sendOnEdge(n, e, msg, self)
		}
	}
}
