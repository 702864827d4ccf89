package counting

import (
	"fmt"
	"time"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The combining-tree counter, in the long-lived setting where operations
// arrive over time. This is the package's one combining implementation.
// sim.RunScript drives it from a fixed schedule (experiments E13 and E16,
// the golden traces, the property tests); the sim bridge serves it live as
// the `sim-tree-counter` structure — the counting side of the paper's
// separation made campaign-measurable. Where sim-counter ships one
// request per operation to the root (the star hub serializes all n-1
// leaves), the combining tree batches: each node merges its own pending
// operations with its children's combined demands into a single upstream
// request per round (Raymond-style, one in flight per node), and the root
// grants whole intervals that split back down in batch order. Under
// bursts the root serves O(children) messages per round regardless of the
// operation rate — counting's classic escape from the hot spot, which has
// no queuing analogue (the paper's point). One
//
//	countq compare "sim-counter,sim-tree-counter" -scenario "ramp?gmax=8"
//
// prices that batching against the naive baseline under identical hop
// latency and capacity.
//
// An operation with block size N > 1 is a fetch-and-add of N: it is
// granted the first count of its block, the exclusive prefix sum of the
// addends served before it plus one. That is distributed addition, the
// open problem the paper closes with (Fatourou & Herlihy's adding
// networks, reference [5]); the addends ride along in the combined
// messages for free.

// counterBridge implements sim.BridgeProtocol with an open-issuance
// combining tree: the authoritative counter lives at the root; per-node
// batches are double-buffered (pending accumulates while sent is in
// flight) so the steady-state op path recycles entry storage.
type counterBridge struct {
	tr     *tree.Tree
	grants sim.Grants
	root   int

	pending  [][]centry // batch accumulating at each node
	demand   []int      // total amount in pending
	inFlight []bool     // an UP is out and its DOWN has not returned
	sent     [][]centry // composition of the in-flight batch
	sum      int        // root's accumulator
}

// centry is one component of a batch: a locally issued operation
// (child == -1) or a child's combined request.
type centry struct {
	child  int // -1 for a local operation
	token  int
	amount int
}

// NewCounterBridge is the sim.ProtoMaker of the combining-tree counter.
func NewCounterBridge(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
	n := g.N()
	return &counterBridge{
		tr:       tr,
		grants:   grants,
		root:     tr.Root(),
		pending:  make([][]centry, n),
		demand:   make([]int, n),
		inFlight: make([]bool, n),
		sent:     make([][]centry, n),
	}, nil
}

func (p *counterBridge) Start(*sim.Env, int) {}

// Issue records the operation in its node's accumulating batch; the next
// Tick flushes it upward (combined with everything else that gathered),
// or serves it on the spot at the root.
//
//countq:hotpath
func (p *counterBridge) Issue(env *sim.Env, node int, token int, op countq.Op) {
	amt := int(op.N)
	if amt < 1 {
		amt = 1
	}
	p.pending[node] = append(p.pending[node], centry{child: -1, token: token, amount: amt})
	p.demand[node] += amt
}

// Deliver handles combined requests from children and interval grants from
// the parent.
//
//countq:hotpath
func (p *counterBridge) Deliver(env *sim.Env, node int, m sim.Message) {
	switch m.Kind {
	case kindUp:
		p.pending[node] = append(p.pending[node], centry{child: m.From, amount: m.A})
		p.demand[node] += m.A
		// Flushed by this round's Tick, so same-round arrivals combine.
	case kindDown:
		p.distribute(env, node, m.A, m.B)
	default:
		failBridgeKind(env, m.Kind)
	}
}

// Tick runs after the round's deliveries: each node flushes its
// accumulated batch — the root serves it, others send one combined UP if
// no batch of theirs is already in flight.
//
//countq:hotpath
func (p *counterBridge) Tick(env *sim.Env, node int) {
	if p.demand[node] == 0 {
		return
	}
	if node == p.root {
		batch := p.pending[node]
		p.pending[node] = batch[:0]
		p.demand[node] = 0
		p.sum = p.assign(env, node, p.sum, batch)
		return
	}
	if p.inFlight[node] {
		return // will flush when the grant returns
	}
	p.inFlight[node] = true
	amount := p.demand[node]
	// Double-buffer swap: the previous sent batch was fully distributed,
	// so its storage backs the next accumulation.
	p.sent[node], p.pending[node] = p.pending[node], p.sent[node][:0]
	p.demand[node] = 0
	env.Send(node, p.tr.Parent(node), sim.Message{Kind: kindUp, A: amount})
}

// assign walks a batch with the exclusive running sum start, granting
// local operations the first value of their block and children
// sub-intervals; it returns the running sum after the batch.
//
//countq:hotpath
func (p *counterBridge) assign(env *sim.Env, node, start int, batch []centry) int {
	running := start
	for _, e := range batch {
		if e.child == -1 {
			p.grants.Grant(e.token, int64(running+1))
		} else {
			env.Send(node, e.child, sim.Message{Kind: kindDown, A: running, B: e.amount})
		}
		running += e.amount
	}
	return running
}

// distribute splits a granted interval (start, start+width] over the
// node's in-flight batch.
//
//countq:hotpath
func (p *counterBridge) distribute(env *sim.Env, node, start, width int) {
	batch := p.sent[node]
	p.inFlight[node] = false
	total := 0
	for _, e := range batch {
		total += e.amount
	}
	if total != width {
		failBridgeGrant(env, node, width, total)
		return
	}
	p.assign(env, node, start, batch)
	// Demand accumulated while the batch was in flight is flushed by this
	// round's Tick (Deliver precedes Tick within the round).
}

// failBridgeKind aborts the simulation on a foreign message kind.
func failBridgeKind(env *sim.Env, kind int) {
	env.Fail(fmt.Errorf("counting: bridge got unexpected message kind %d", kind))
}

// failBridgeGrant aborts on an interval that does not match the in-flight
// batch — a protocol invariant violation, never expected.
func failBridgeGrant(env *sim.Env, node, got, want int) {
	env.Fail(fmt.Errorf("counting: node %d granted %d for in-flight batch of %d", node, got, want))
}

func init() {
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "sim-tree-counter",
		Summary:      "combining-tree counting over the simulated network (per-node batches merge upward, the root grants intervals that split back down; the hot spot amortizes across the tree)",
		Kinds:        countq.KindCounter,
		Linearizable: true,
		Params: []countq.ParamInfo{
			{Name: "hoplat", Default: "1us", Doc: "wall-clock cost of one simulated round (one message hop); 0 = free-running"},
			{Name: "nodes", Default: "9", Doc: "network size (root + leaves; sessions pin round-robin to non-root nodes)"},
			{Name: "topo", Default: "star", Doc: "topology: star (hub contention) | list (diameter) | mesh2d"},
			{Name: "cap", Default: "1", Doc: "per-node per-round send/receive capacity — the paper's c"},
			{Name: "jitter", Default: "0", Doc: "max per-message link delay in rounds (0 = deterministic unit delay)"},
			{Name: "seed", Default: "1", Doc: "seed for the jitter delay model (ignored when jitter=0)"},
			{Name: "pipeline", Default: "1024", Doc: "per-session transport depth: submit-lane capacity, completion buffer and outstanding-operation bound"},
		},
		Caps: countq.CapBatch | countq.CapAsync,
		New: func(o countq.Options) (countq.Structure, error) {
			cfg := sim.BridgeConfig{
				Topo:     o.String("topo", "star"),
				Nodes:    o.Int("nodes", 0),
				HopLat:   o.Duration("hoplat", time.Microsecond),
				Capacity: o.Int("cap", 0),
				Pipeline: o.Int("pipeline", 0),
				Proto:    NewCounterBridge,
			}
			seed := o.Int("seed", 1)
			if jitter := o.Int("jitter", 0); jitter > 0 {
				cfg.Delay = sim.JitterDelay{Seed: int64(seed), Max: jitter}
			}
			if err := o.Err(); err != nil {
				return nil, err
			}
			return sim.NewBridge(cfg)
		},
	})
}
