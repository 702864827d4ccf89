package arrow

import (
	"fmt"
	"time"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The long-lived arrow protocol (Kuhn & Wattenhofer's setting, the
// paper's reference [8]): queuing operations arrive over time rather than
// all at time zero, and path reversal needs no modification. This is the
// package's one long-lived implementation. sim.RunScript drives it from a
// fixed schedule (experiment E13, the golden traces, the property tests);
// the sim bridge serves it live as the `sim-arrow-queue` structure. This
// is the paper's fast side of the separation made campaign-measurable:
// where sim-queue routes every Enqueue to a central root (Θ(n²)
// contention on the star), arrow orders operations by distributed path
// reversal — each request chases the moving tail over at most D hops and
// the ordering point migrates to the requester, so there is no fixed hot
// spot. One
//
//	countq compare "sim-queue,sim-arrow-queue" -scenario "ramp?gmax=8"
//
// puts Theorem 4.1's low-congestion queuing next to the naive baseline
// under identical hop latency and capacity.

// queueBridge implements sim.BridgeProtocol with the long-lived arrow
// protocol. The queue tail starts at the spanning tree's root; a queue
// message carries the operation's token in A.
type queueBridge struct {
	grants sim.Grants
	link   []int   // arrow pointers: self at a sink, else next hop tailward
	lastID []int64 // lastID[v] = user id of the last op issued at v (or Head)
}

// NewQueueBridge is the sim.ProtoMaker of the long-lived arrow protocol:
// each operation is granted its predecessor's id (countq.Head for the
// first).
func NewQueueBridge(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
	router := tr.NewRouter()
	root := tr.Root()
	n := g.N()
	p := &queueBridge{
		grants: grants,
		link:   make([]int, n),
		lastID: make([]int64, n),
	}
	for v := 0; v < n; v++ {
		if v == root {
			p.link[v] = v
		} else {
			p.link[v] = router.NextHop(v, root)
		}
		p.lastID[v] = countq.Head
	}
	return p, nil
}

func (p *queueBridge) Start(*sim.Env, int) {}

// Issue performs the atomic arrow issuance step for the operation at its
// session's node: flip the local arrow to self and chase the old target.
// If the node already holds the tail (initially, or because its own
// previous operation is the current tail) the predecessor is local and the
// operation completes without a single message — the protocol's fast path,
// which no central protocol can offer.
//
//countq:hotpath
func (p *queueBridge) Issue(env *sim.Env, node int, token int, op countq.Op) {
	target := p.link[node]
	prev := p.lastID[node]
	p.lastID[node] = op.ID
	if target == node {
		p.grants.Grant(token, prev)
		return
	}
	p.link[node] = node
	env.Send(node, target, sim.Message{Kind: kindQueue, A: token})
}

// Deliver handles chasing messages exactly as in the one-shot protocol:
// reverse the local arrow toward the sender; a sink terminates the chase
// and grants the op the id of the tail recorded there.
//
//countq:hotpath
func (p *queueBridge) Deliver(env *sim.Env, node int, m sim.Message) {
	if m.Kind != kindQueue {
		failKind(env, m.Kind)
		return
	}
	old := p.link[node]
	p.link[node] = m.From
	if old == node {
		p.grants.Grant(m.A, p.lastID[node])
		return
	}
	env.Send(node, old, sim.Message{Kind: kindQueue, A: m.A})
}

// failKind aborts the simulation on a foreign message kind — out of line
// so the annotated Deliver stays free of cold fmt work.
func failKind(env *sim.Env, kind int) {
	env.Fail(fmt.Errorf("arrow: bridge got unexpected message kind %d", kind))
}

func init() {
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "sim-arrow-queue",
		Summary:      "distributed queuing via arrow path reversal over the simulated network (requests chase the moving tail; the ordering point migrates to the requester — no fixed hot spot)",
		Kinds:        countq.KindQueue,
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
		Caps: countq.CapAsync,
		New: func(o countq.Options) (countq.Structure, error) {
			cfg := sim.BridgeConfig{
				Topo:     o.String("topo", "star"),
				Nodes:    o.Int("nodes", 0),
				HopLat:   o.Duration("hoplat", time.Microsecond),
				Capacity: o.Int("cap", 0),
				Pipeline: o.Int("pipeline", 0),
				Queue:    true,
				Proto:    NewQueueBridge,
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
