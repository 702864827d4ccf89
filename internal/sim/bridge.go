package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/tree"
)

// The bridge runs a message-passing protocol as a countq Structure — the
// first backend only the session API can express. Sessions are pinned to
// leaf nodes of a simulated network; every Inc/Enqueue becomes an
// operation issued into the protocol, which routes whatever messages it
// needs and eventually grants a value back. A single pump goroutine
// advances the simulation one round per configured hop latency, so the
// coordination cost the paper reasons about — hops to the point of
// serialization, contention at its receive capacity — shows up as real
// wall-clock latency in the scenario engine's histograms, comparable in
// one campaign against the shared-memory zoo.
//
// The protocol behind the bridge is pluggable (BridgeProtocol): the
// default is the naive central protocol (internal/sim/central.go), whose
// root serializes everything — Θ(n²) hub behavior on the star. The
// paper's good protocols register themselves through ProtoMaker:
// internal/arrow routes queuing through distributed path reversal
// (sim-arrow-queue) and internal/counting routes counting through the
// combining tree (sim-tree-counter), which makes the paper's
// counting-vs-queuing separation directly measurable in one campaign.
//
// Sessions support the synchronous Session calls (each blocks for its
// round trip), BatchSession (one request grants a block), and
// AsyncSession (Submit/Completions — the pipeline that overlaps round
// trips, which no synchronous interface could express).
//
// Transport (see DESIGN.md, "Bridge transport"): sessions publish
// operations into private SPSC lanes (internal/ring) that the pump sweeps
// once per round in session-registration order, and sync grants return
// through a per-session completion ring with an eventcount park/wake —
// the uncontended sync round trip spins through the pump's turn instead
// of paying two channel handoffs and a scheduler wakeup per op.

// defaultPipeline is the default per-session transport depth: the submit
// lane capacity, the async completion buffer, and the cap on operations
// one session may keep outstanding. Override per spec with pipeline=.
const defaultPipeline = 1024

// maxPipeline bounds pipeline= so a typo cannot ask for a gigabyte of
// lanes (mirrors the shm combining backends' bound).
const maxPipeline = 1 << 15

// syncWindow sizes the per-session sync-grant ring: one live round trip
// plus up to syncWindow-1 abandoned stragglers whose grants are still in
// flight after their round trips were cancelled.
const syncWindow = 8

// syncSpin is how many scheduler yields a sync round trip spends polling
// its grant ring before parking on the eventcount — enough for the pump
// to take its turn on a busy machine, so the steady uncontended path
// never parks.
const syncSpin = 128

// pumpIdleSpin is how many scheduler yields an idle pump spends polling
// its lanes before parking — back-to-back sync ops from a spinning
// session land within the budget, so neither side pays a wakeup.
const pumpIdleSpin = 128

// freeRunYield is how many back-to-back rounds a free-running (hoplat=0)
// pump steps before yielding the processor once. Short grant chains
// (a few rounds) never yield mid-chain, which is what makes the spinning
// round trip two switches total on one core; a protocol that withholds a
// grant for many rounds still lets waiters run every freeRunYield rounds
// instead of starving them until the runtime preempts.
const freeRunYield = 64

// Grants is the completion sink a BridgeProtocol resolves operations
// into: Grant completes the operation issued under token with the granted
// value (a count-block start, or a queue predecessor id). Granting an
// unknown or already-granted token is a no-op.
type Grants interface {
	Grant(token int, value int64)
}

// BridgeProtocol is a message-passing protocol routable by the bridge.
// Implementations own all protocol state; the bridge owns sessions,
// tokens and completion delivery. Everything runs on the single pump
// goroutine, so no synchronization is needed. A protocol may additionally
// implement BridgeTicker for per-round work.
type BridgeProtocol interface {
	// Start seeds per-node protocol state before the first round.
	Start(env *Env, node int)
	// Issue injects the operation op, identified by token, at node. The
	// protocol must eventually Grant the token (the pump keeps stepping
	// rounds while any token is outstanding).
	Issue(env *Env, node int, token int, op countq.Op)
	// Deliver handles one protocol message at node.
	Deliver(env *Env, node int, m Message)
}

// BridgeTicker is an optional BridgeProtocol extension mirroring Ticker:
// Tick runs for every node after each round's receive phase — combining
// protocols use it to flush batches once per round.
type BridgeTicker interface {
	Tick(env *Env, node int)
}

// ProtoMaker builds a BridgeProtocol for the bridge's graph and spanning
// tree, resolving completions into grants. Packages register bridge specs
// by passing a ProtoMaker in BridgeConfig.Proto.
type ProtoMaker func(g *graph.Graph, tr *tree.Tree, grants Grants) (BridgeProtocol, error)

// BridgeConfig describes a bridge instance.
type BridgeConfig struct {
	// Topo is the network topology: "star" (default; hub contention),
	// "list" (diameter), or "mesh2d".
	Topo string
	// Nodes is the network size (default 9: a hub plus 8 leaves on the
	// star). Must be ≥ 2; sessions are assigned round-robin to the
	// non-root nodes.
	Nodes int
	// HopLat is the wall-clock cost of one simulated round — one message
	// hop (default 1µs). 0 advances rounds as fast as the pump can spin.
	HopLat time.Duration
	// Capacity is the per-node per-round send/receive budget, the paper's
	// c (default 1).
	Capacity int
	// Pipeline is the per-session transport depth: the submit lane
	// capacity, the async completion buffer, and the bound on operations
	// one session may keep outstanding (default 1024, max 32768).
	Pipeline int
	// Queue selects queuing semantics (sessions serve Enqueue) instead of
	// counting semantics (sessions serve Inc).
	Queue bool
	// Proto overrides the routed protocol; nil selects the central
	// protocol matching Queue.
	Proto ProtoMaker
	// Delay overrides the link delay model; nil means UnitDelay.
	Delay DelayModel
}

// Bridge runs a message-passing protocol as a countq.Structure. Close
// stops the network pump; the workload driver closes it when a run
// finishes.
type Bridge struct {
	cfg      BridgeConfig
	pipeline int
	// sub aggregates the per-session submit lanes; the pump sweeps a
	// snapshot of them once per round and parks on the aggregate's
	// eventcount when everything is idle.
	sub        *ring.Lanes[bridgeOp]
	scratch    []bridgeOp    // pump-owned sweep buffer, reused across rounds
	spinRounds int           // pump-owned: free-running rounds since last yield
	done       chan struct{} // closed by Close: stop accepting, drain, exit
	pumpExit   chan struct{} // closed when the pump has exited
	stop       sync.Once
	drainOnce  sync.Once
	nextLeaf   atomic.Uint64
	leaves     []int
	// Simulated-time mirror of the network stats, refreshed by the pump
	// once per round so callers can report simulated rounds and message
	// counts alongside wall latency without touching pump-owned state.
	simRounds atomic.Int64
	simMsgs   atomic.Int64
	// closeMu fences submission against Close: senders hold the read
	// side across the closed-flag check and the lane publish, so once
	// Close holds the write side no publish can be in flight — every
	// accepted operation is then either with the pump or in a lane the
	// close path sweeps, and the AsyncSession contract (one Completion
	// per accepted Submit) holds through shutdown.
	closeMu sync.RWMutex
	closed  bool
}

// bridgeOp is one operation in flight from a session to the pump.
type bridgeOp struct {
	node  int
	op    countq.Op
	sess  *bridgeSession
	seq   uint64 // sync round-trip sequence; 0 for async ops
	async bool
}

// syncGrant is one granted sync round trip riding the session's grant
// ring back from the pump.
type syncGrant struct {
	seq uint64
	val int64
	err error
}

// settle resolves o with c: async completions go to the session's
// completion channel (buffered to the pipeline depth, so this never
// blocks the pump); sync grants ride the session's grant ring and wake
// the parked waiter. A sync grant whose round trip was already abandoned
// (ctx cancellation) is dropped here — the drop is counted so the
// session's straggler window stays balanced.
//
//countq:hotpath
//countq:role=producer
func settle(o bridgeOp, c countq.Completion) {
	s := o.sess
	if o.async {
		s.out <- c
		s.outstanding.Add(-1)
		return
	}
	if o.seq <= s.abandonSeq.Load() {
		s.dropped.Add(1)
		return
	}
	// The push cannot fail: the ring holds one live round trip plus
	// abandoned stragglers, and waitStragglers keeps those under
	// syncWindow-1 before a new op is sent.
	s.grants.Push(syncGrant{seq: o.seq, val: c.Value, err: c.Err})
	s.ev.Wake()
}

// grantTable is the pump's pending-operation store: a slot slice indexed
// by token with a free list, so steady-state issue/grant cycles reuse
// slots with no map traffic and no allocation.
type grantTable struct {
	slots []bridgeOp
	free  []int
	live  int
}

// add stores o and returns its token.
//
//countq:hotpath
func (t *grantTable) add(o bridgeOp) int {
	t.live++
	if k := len(t.free) - 1; k >= 0 {
		tok := t.free[k]
		t.free = t.free[:k]
		t.slots[tok] = o
		return tok
	}
	t.slots = append(t.slots, o)
	return len(t.slots) - 1
}

// Grant implements Grants: it completes the operation under tok with val.
//
//countq:hotpath
func (t *grantTable) Grant(tok int, val int64) {
	if tok < 0 || tok >= len(t.slots) {
		return
	}
	o := t.slots[tok]
	if o.sess == nil {
		return
	}
	t.slots[tok] = bridgeOp{}
	t.free = append(t.free, tok)
	t.live--
	settle(o, countq.Completion{Op: o.op, Value: val})
}

// failAll resolves every pending operation with err — the pump's
// fail-loudly path when the simulation itself errors.
func (t *grantTable) failAll(err error) {
	for tok := range t.slots {
		o := t.slots[tok]
		if o.sess == nil {
			continue
		}
		t.slots[tok] = bridgeOp{}
		t.free = append(t.free, tok)
		t.live--
		settle(o, countq.Completion{Op: o.op, Err: err})
	}
}

// NewBridge builds the network, constructs the protocol and starts the
// pump.
func NewBridge(cfg BridgeConfig) (*Bridge, error) {
	n := cfg.Nodes
	if n == 0 {
		n = 9
	}
	if n < 2 {
		return nil, fmt.Errorf("sim: bridge needs ≥ 2 nodes (a root and a leaf), got %d", n)
	}
	var g *graph.Graph
	switch cfg.Topo {
	case "", "star":
		g = graph.Star(n)
	case "list":
		g = graph.Path(n)
	case "mesh2d":
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		if side*side != n {
			return nil, fmt.Errorf("sim: mesh2d needs a perfect-square node count, got %d (nearest: %d or %d)", n, side*side, (side+1)*(side+1))
		}
		g = graph.Mesh(side, side)
	default:
		return nil, fmt.Errorf("sim: unknown bridge topology %q (star|list|mesh2d)", cfg.Topo)
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("sim: negative bridge capacity %d", cfg.Capacity)
	}
	if cfg.HopLat < 0 {
		return nil, fmt.Errorf("sim: negative hop latency %v", cfg.HopLat)
	}
	pipeline := cfg.Pipeline
	if pipeline == 0 {
		pipeline = defaultPipeline
	}
	if pipeline < 1 {
		return nil, fmt.Errorf("sim: bridge pipeline %d < 1", cfg.Pipeline)
	}
	if pipeline > maxPipeline {
		return nil, fmt.Errorf("sim: bridge pipeline %d > %d", cfg.Pipeline, maxPipeline)
	}
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		return nil, fmt.Errorf("sim: bridge spanning tree: %w", err)
	}
	leaves := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != tr.Root() {
			leaves = append(leaves, v)
		}
	}
	b := &Bridge{
		cfg:      cfg,
		pipeline: pipeline,
		sub:      ring.NewLanes[bridgeOp](),
		done:     make(chan struct{}),
		pumpExit: make(chan struct{}),
		leaves:   leaves,
	}
	mk := cfg.Proto
	switch {
	case mk != nil:
	case cfg.Queue:
		mk = NewCentralQueue
	default:
		mk = NewCentralCounter
	}
	table := &grantTable{}
	bp, err := mk(g, tr, table)
	if err != nil {
		return nil, fmt.Errorf("sim: bridge protocol: %w", err)
	}
	var netp Protocol = bridgeNetProto{bp}
	if t, ok := bp.(BridgeTicker); ok {
		netp = bridgeNetProtoTick{bridgeNetProto{bp}, t}
	}
	nw := New(Config{Graph: g, Capacity: cfg.Capacity, Delay: cfg.Delay}, netp)
	go b.pump(nw, bp, table)
	return b, nil
}

// bridgeNetProto adapts a BridgeProtocol to the engine's Protocol; the
// Tick variant is used only when the protocol wants per-round callbacks,
// so non-ticking protocols pay no per-node Tick loop.
type bridgeNetProto struct{ p BridgeProtocol }

func (a bridgeNetProto) Start(env *Env, node int)              { a.p.Start(env, node) }
func (a bridgeNetProto) Deliver(env *Env, node int, m Message) { a.p.Deliver(env, node, m) }

type bridgeNetProtoTick struct {
	bridgeNetProto
	t BridgeTicker
}

func (a bridgeNetProtoTick) Tick(env *Env, node int) { a.t.Tick(env, node) }

// SimStats reports the simulated rounds stepped and protocol messages
// sent so far — the simulated-time cost behind the wall-clock latencies,
// refreshed once per round by the pump. Safe from any goroutine.
func (b *Bridge) SimStats() (rounds, messages int64) {
	return b.simRounds.Load(), b.simMsgs.Load()
}

// Close stops the pump after it drains every accepted operation, then
// fails anything that raced into the submit lanes against the shutdown.
// Safe to call more than once.
func (b *Bridge) Close() error {
	b.closeMu.Lock()
	b.closed = true
	b.closeMu.Unlock()
	b.stop.Do(func() { close(b.done) })
	<-b.pumpExit
	// No sender can be mid-publish now (the closed flag is checked under
	// closeMu before every publish, and the pump stayed alive until the
	// flag flipped), so the lanes hold only operations that beat the
	// flag; complete them with the close error. The pump is gone, so this
	// goroutine is the lanes' consumer; drainOnce keeps concurrent Close
	// calls from sweeping the same lanes twice.
	b.drainOnce.Do(func() { b.failLanes(errBridgeClosed) })
	return nil
}

// send publishes an operation into the session's lane, fenced against
// Close. An error means the operation was not accepted and no Completion
// will arrive.
//
//countq:hotpath
//countq:role=producer
func (s *bridgeSession) send(ctx context.Context, o bridgeOp) error {
	s.b.closeMu.RLock()
	if s.b.closed {
		s.b.closeMu.RUnlock()
		return errBridgeClosed
	}
	// The pump is alive for as long as this read lock is held (Close
	// flips the flag before signalling it to exit), so a full lane
	// drains and this publish cannot spin indefinitely.
	for !s.lane.Push(o) {
		if err := ctx.Err(); err != nil {
			s.b.closeMu.RUnlock()
			return err
		}
		s.b.sub.Wake()
		runtime.Gosched()
	}
	s.b.sub.Wake()
	s.b.closeMu.RUnlock()
	return nil
}

// NewSession pins a new session to the next leaf node round-robin. Several
// sessions may share a leaf; their operations are distinguished by token.
func (b *Bridge) NewSession() (countq.Session, error) {
	i := b.nextLeaf.Add(1) - 1
	s := &bridgeSession{
		b:      b,
		node:   b.leaves[int(i%uint64(len(b.leaves)))],
		out:    make(chan countq.Completion, b.pipeline),
		grants: ring.New[syncGrant](syncWindow),
	}
	s.ev.Init()
	s.lane = b.sub.NewLane(b.pipeline)
	return s, nil
}

// pump is the network clock: it injects submitted operations, advances one
// simulated round per hop latency, and exits — after draining everything
// accepted — when the bridge is closed.
func (b *Bridge) pump(nw *Network, bp BridgeProtocol, table *grantTable) {
	defer close(b.pumpExit)
	b.pumpLoop(nw, bp, table)
}

// inject sweeps every session lane once — in lane-registration order,
// which is session-creation order, so injection stays deterministic for a
// fixed session set — and issues the swept batch into the protocol.
//
//countq:hotpath
//countq:role=consumer
func (b *Bridge) inject(env *Env, bp BridgeProtocol, table *grantTable) int {
	injected := 0
	for _, lane := range b.sub.Snapshot() {
		b.scratch = lane.DrainTo(b.scratch[:0])
		for i := range b.scratch {
			bp.Issue(env, b.scratch[i].node, table.add(b.scratch[i]), b.scratch[i].op)
		}
		injected += len(b.scratch)
	}
	return injected
}

// pumpLoop is the pump's steady state: allocation-free once the grant
// table, the scratch buffer and the engine's buffers have grown to the
// workload's high-water mark. One lane sweep per round batch-injects
// every waiting submission, so concurrent sessions contend inside the
// simulation (queued at the protocol's capacity) rather than in the
// transport; when everything is idle the pump spins briefly and then
// parks on the lanes' eventcount.
//
//countq:hotpath
//countq:role=consumer
func (b *Bridge) pumpLoop(nw *Network, bp BridgeProtocol, table *grantTable) {
	env := nw.Env()
	if err := nw.Begin(); err != nil {
		b.fail(table, err)
		return
	}
	closing := false
	idle := 0
	for {
		injected := b.inject(env, bp, table)
		if table.live == 0 && nw.Quiescent() {
			if closing {
				if injected == 0 {
					// Closed, drained, quiescent: the lanes were empty on
					// this very sweep and no publish can start once the
					// closed flag is up, so exit. Close sweeps once more
					// for operations that beat the flag.
					return
				}
				continue
			}
			if injected > 0 {
				// Everything injected was granted without routing (a
				// protocol fast path, e.g. arrow's local tail): nothing to
				// step, so spend no hop latency and sweep again.
				idle = 0
				continue
			}
			// Idle: spin a little (a spinning sync session's next op lands
			// within the budget), then park on the eventcount.
			select {
			case <-b.done:
				closing = true
				continue
			default:
			}
			if idle < pumpIdleSpin {
				idle++
				runtime.Gosched()
				continue
			}
			b.sub.Prepare()
			if b.inject(env, bp, table) > 0 {
				// Work raced in before the parked flag was visible; its
				// publisher saw no parked consumer and sent no signal.
				b.sub.Unpark()
				idle = 0
				continue
			}
			select {
			case <-b.sub.WakeChan():
				idle = 0
			case <-b.done:
				b.sub.Unpark()
				closing = true
			}
			continue
		}
		idle = 0
		b.sleepHop()
		if err := nw.Step(); err != nil {
			b.fail(table, err)
			return
		}
		st := nw.Stats()
		b.simRounds.Store(int64(st.Rounds))
		b.simMsgs.Store(int64(st.MessagesSent))
		if !closing {
			// Re-check shutdown so a Close with an idle network exits
			// promptly even while sessions keep the lanes empty.
			select {
			case <-b.done:
				closing = true
			default:
			}
		}
	}
}

// failLanes sweeps every session lane and resolves the swept operations
// with err. Runs on whichever goroutine currently owns the consumer role
// (the pump, or Close after the pump exited).
//
//countq:role=consumer
func (b *Bridge) failLanes(err error) {
	for _, lane := range b.sub.Snapshot() {
		b.scratch = lane.DrainTo(b.scratch[:0])
		for i := range b.scratch {
			settle(b.scratch[i], countq.Completion{Op: b.scratch[i].op, Err: err})
		}
	}
}

// fail resolves everything pending with err and then answers every further
// submission with it until the bridge is closed.
//
//countq:role=consumer
func (b *Bridge) fail(table *grantTable, err error) {
	table.failAll(err)
	for {
		b.failLanes(err)
		b.sub.Prepare()
		b.failLanes(err) // re-sweep: a publish may have raced the parked flag
		select {
		case <-b.sub.WakeChan():
		case <-b.done:
			b.sub.Unpark()
			// done closed ⟹ the closed flag is up and no publish is in
			// flight; one final sweep leaves the lanes empty for Close.
			b.failLanes(err)
			return
		}
	}
}

// sleepHop spends one hop latency of wall time. Zero latency spends
// nearly nothing — the pump runs rounds back to back, yielding only
// every freeRunYield rounds, which on a loaded single-core box is what
// lets a spinning session's short round trip finish in two scheduler
// switches while still letting waiters run under a grant the protocol
// holds across many rounds. Short latencies spin with Gosched
// (time.Sleep's timer floor would inflate sub-50µs hops by an order of
// magnitude); long ones sleep.
//
//countq:hotpath clocks=2
func (b *Bridge) sleepHop() {
	d := b.cfg.HopLat
	switch {
	case d <= 0:
		b.spinRounds++
		if b.spinRounds >= freeRunYield {
			b.spinRounds = 0
			runtime.Gosched()
		}
	case d < 50*time.Microsecond:
		t0 := time.Now()
		for time.Since(t0) < d {
			runtime.Gosched()
		}
	default:
		time.Sleep(d)
	}
}

// bridgeSession is one worker's conversation with the bridge. Owned by one
// goroutine, like every Session.
type bridgeSession struct {
	b    *Bridge
	node int
	// lane is the session's private submit ring; the pump sweeps it once
	// per round.
	lane *ring.SPSC[bridgeOp]
	out  chan countq.Completion
	// grants carries sync round-trip results back from the pump; ev is
	// the parked-waiter signal for it. One op is live at a time (sessions
	// are single-owner), so the ring holds that op's grant plus at most
	// syncWindow-1 stragglers from abandoned round trips.
	grants *ring.SPSC[syncGrant]
	ev     ring.Event
	// syncSeq numbers sync round trips; abandonSeq is the highest
	// abandoned sequence, published to the pump so straggler grants are
	// dropped at the source. abandoned/reaped/dropped balance the
	// straggler window: abandoned counts cancelled round trips, reaped
	// the stale grants this session discarded from its ring, dropped the
	// ones the pump discarded before the push.
	syncSeq     uint64
	abandoned   int
	reaped      int
	dropped     atomic.Int64
	abandonSeq  atomic.Uint64
	outstanding atomic.Int64
}

// errBridgeClosed reports operations against a closed bridge.
var errBridgeClosed = fmt.Errorf("sim: bridge is closed")

// abandon records a cancelled round trip: its grant, when it arrives, is
// dropped by the pump or reaped from the ring by a later round trip.
func (s *bridgeSession) abandon(seq uint64) {
	s.abandoned++
	s.abandonSeq.Store(seq)
}

// waitStragglers keeps the sync-grant ring from overflowing after a burst
// of cancellations: it blocks a new round trip until enough abandoned
// grants have resolved (dropped or reaped) that the live grant plus every
// straggler still in flight fits the ring. Cold — only runs after
// syncWindow-1 round trips were cancelled with their grants unresolved.
//
//countq:role=consumer
func (s *bridgeSession) waitStragglers(ctx context.Context) error {
	for s.abandoned-s.reaped-int(s.dropped.Load()) >= syncWindow {
		if _, ok := s.grants.Pop(); ok {
			// Whatever is buffered here is stale: no round trip is live.
			s.reaped++
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-s.b.pumpExit:
			return errBridgeClosed
		default:
		}
		runtime.Gosched()
	}
	return nil
}

// roundTrip submits op and blocks for its grant — the synchronous view of
// the asynchronous protocol. The wait spins through the pump's turn
// first (the uncontended path completes without parking), then parks on
// the session eventcount.
//
//countq:hotpath
//countq:role=consumer
func (s *bridgeSession) roundTrip(ctx context.Context, op countq.Op) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	// Whatever is buffered here is a straggler from an abandoned round
	// trip (no round trip is live); reap before reusing the ring.
	for {
		if _, ok := s.grants.Pop(); !ok {
			break
		}
		s.reaped++
	}
	if s.abandoned-s.reaped-int(s.dropped.Load()) >= syncWindow {
		if err := s.waitStragglers(ctx); err != nil {
			return 0, err
		}
	}
	s.syncSeq++
	seq := s.syncSeq
	if err := s.send(ctx, bridgeOp{node: s.node, op: op, sess: s, seq: seq}); err != nil {
		// Not accepted: no grant will ever carry this sequence, so it
		// needs no abandon accounting.
		return 0, err
	}
	spins := 0
	for {
		if g, ok := s.grants.Pop(); ok {
			if g.seq == seq {
				return g.val, g.err
			}
			s.reaped++
			continue
		}
		if spins < syncSpin {
			spins++
			runtime.Gosched()
			continue
		}
		s.ev.Prepare()
		if g, ok := s.grants.Pop(); ok {
			// The grant raced in before the parked flag was visible.
			s.ev.Unpark()
			if g.seq == seq {
				return g.val, g.err
			}
			s.reaped++
			spins = 0
			continue
		}
		select {
		case <-s.ev.WakeChan():
			spins = 0
		case <-ctx.Done():
			// The operation was accepted and will still execute; its grant
			// is abandoned (see AsyncSession's contract on cancellation)
			// and dropped or reaped when it lands.
			s.ev.Unpark()
			s.abandon(seq)
			return 0, ctx.Err()
		case <-s.b.pumpExit:
			// The pump exited; prefer a grant that beat it out the door.
			s.ev.Unpark()
			for {
				g, ok := s.grants.Pop()
				if !ok {
					break
				}
				if g.seq == seq {
					return g.val, g.err
				}
				s.reaped++
			}
			s.abandon(seq)
			return 0, errBridgeClosed
		}
	}
}

// Inc implements countq.Session (counting bridges only).
//
//countq:hotpath
func (s *bridgeSession) Inc(ctx context.Context) (int64, error) {
	if s.b.cfg.Queue {
		return 0, s.wrongKind(countq.Op{Kind: countq.OpInc})
	}
	return s.roundTrip(ctx, countq.Op{Kind: countq.OpInc, N: 1})
}

// IncN implements countq.BatchSession: one request message grants the
// whole block in a single round trip — the batching escape hatch priced at
// exactly one coordination round.
func (s *bridgeSession) IncN(ctx context.Context, n int64) (int64, error) {
	if s.b.cfg.Queue {
		return 0, s.wrongKind(countq.Op{Kind: countq.OpInc})
	}
	if n < 1 {
		return 0, fmt.Errorf("sim: IncN(%d): block size must be ≥ 1", n)
	}
	if int64(int(n)) != n {
		return 0, fmt.Errorf("sim: IncN(%d): block size overflows the message payload", n)
	}
	return s.roundTrip(ctx, countq.Op{Kind: countq.OpInc, N: n})
}

// Enqueue implements countq.Session (queue bridges only).
//
//countq:hotpath
func (s *bridgeSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	if !s.b.cfg.Queue {
		return 0, s.wrongKind(countq.Op{Kind: countq.OpEnqueue})
	}
	if int64(int(id)) != id || id < 0 {
		return 0, s.badID(id)
	}
	return s.roundTrip(ctx, countq.Op{Kind: countq.OpEnqueue, ID: id})
}

// wrongKind reports an operation against the wrong bridge side.
func (s *bridgeSession) wrongKind(op countq.Op) error {
	side := "counter"
	if s.b.cfg.Queue {
		side = "queue"
	}
	return fmt.Errorf("sim: %v on a %s bridge session: %w", op.Kind, side, countq.ErrUnsupported)
}

// badID reports an enqueue id outside the message payload range.
func (s *bridgeSession) badID(id int64) error {
	return fmt.Errorf("sim: Enqueue id %d outside the message payload range", id)
}

// Submit implements countq.AsyncSession: the operation is queued for
// injection and its Completion arrives on Completions. An error means the
// operation was not accepted.
//
//countq:hotpath
func (s *bridgeSession) Submit(ctx context.Context, op countq.Op) error {
	if s.b.cfg.Queue != (op.Kind == countq.OpEnqueue) {
		return s.wrongKind(op)
	}
	if op.Kind == countq.OpEnqueue && (int64(int(op.ID)) != op.ID || op.ID < 0) {
		return s.badID(op.ID)
	}
	if op.Kind == countq.OpInc && int64(int(op.N)) != op.N {
		return fmt.Errorf("sim: IncN(%d): block size overflows the message payload", op.N)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.outstanding.Load() >= int64(s.b.pipeline) {
		return fmt.Errorf("sim: bridge session pipeline full (%d operations outstanding)", s.b.pipeline)
	}
	s.outstanding.Add(1)
	if err := s.send(ctx, bridgeOp{node: s.node, op: op, sess: s, async: true}); err != nil {
		s.outstanding.Add(-1)
		return err
	}
	return nil
}

// Completions implements countq.AsyncSession.
func (s *bridgeSession) Completions() <-chan countq.Completion {
	return s.out
}

// Close drains any unconsumed async completions (their operations have
// executed; abandoning them is the caller's choice), unregisters the
// session's lane from the pump's sweep set and detaches the session. The
// channel itself is never closed — consumers track their own outstanding
// count.
func (s *bridgeSession) Close() error {
	if s.outstanding.Load() > 0 {
		// outstanding is decremented after the completion push, so a brief
		// wait between observing the count and the arrival is expected;
		// re-check on a reused timer rather than allocating one per poll.
		timer := time.NewTimer(10 * time.Millisecond)
		defer timer.Stop()
		for s.outstanding.Load() > 0 {
			select {
			case <-s.out:
				if !timer.Stop() {
					<-timer.C
				}
			case <-s.b.pumpExit:
				// Pump gone; the bridge's close sweep settles whatever is
				// still in the lane, so leave it registered.
				return nil
			case <-timer.C:
			}
			timer.Reset(10 * time.Millisecond)
		}
	}
	for {
		select {
		case <-s.out:
		default:
			s.b.sub.Remove(s.lane)
			return nil
		}
	}
}
