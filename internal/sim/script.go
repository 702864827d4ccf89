package sim

import (
	"fmt"
	"sort"

	"repro/countq"
	"repro/internal/tree"
)

// The scripted driver runs a BridgeProtocol directly on the round engine
// from a fixed schedule of operations — no pump, no sessions, no
// goroutines. It is the deterministic face of the same protocol code the
// bridge serves live: the experiments, the golden traces and the property
// tests drive a protocol through RunScript, campaigns drive it through
// NewBridge, and there is one implementation of each protocol behind both.

// ScriptOp is one scripted operation: Op is issued at Node in round Round.
// Counting ops carry their block size in Op.N (≥ 1); queuing ops carry
// their id in Op.ID (≥ 0).
type ScriptOp struct {
	Node, Round int
	Op          countq.Op
}

// ScriptResult is the outcome of a scripted run. Values[i] is op i's
// granted value — the first count of its block, or its predecessor's id
// (countq.Head for the first) — and Rounds[i] the round it was granted.
type ScriptResult struct {
	Stats        Stats
	Values       []int64
	Rounds       []int
	TotalLatency int // Σ Rounds[i] − ops[i].Round
}

// RunScript builds the protocol mk on cfg.Graph and spanning tree tr and
// runs ops to completion. The ops due in a round are issued inside that
// round's tick phase — after the round's deliveries, before the
// protocol's own Tick — in (Node, slice index) order; round 0 runs Start,
// then issue, then Tick, node by node. The protocol grants op i under
// token i. RunScript fails if the engine fails or any op is never granted.
func RunScript(cfg Config, tr *tree.Tree, mk ProtoMaker, ops []ScriptOp) (*ScriptResult, error) {
	if cfg.Graph == nil || tr == nil || mk == nil {
		return nil, fmt.Errorf("sim: RunScript needs a graph, a spanning tree and a protocol")
	}
	n := cfg.Graph.N()
	if tr.N() != n {
		return nil, fmt.Errorf("sim: spanning tree has %d nodes, graph %d", tr.N(), n)
	}
	last := 0
	for i, o := range ops {
		switch {
		case o.Node < 0 || o.Node >= n:
			return nil, fmt.Errorf("sim: script op %d node %d out of range", i, o.Node)
		case o.Round < 0:
			return nil, fmt.Errorf("sim: script op %d round %d negative", i, o.Round)
		case o.Op.Kind == countq.OpInc && o.Op.N < 1:
			return nil, fmt.Errorf("sim: script op %d block size %d < 1", i, o.Op.N)
		case o.Op.Kind == countq.OpEnqueue && o.Op.ID < 0:
			return nil, fmt.Errorf("sim: script op %d id %d negative", i, o.Op.ID)
		}
		if o.Round > last {
			last = o.Round
		}
	}
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		oa, ob := ops[order[a]], ops[order[b]]
		if oa.Round != ob.Round {
			return oa.Round < ob.Round
		}
		return oa.Node < ob.Node
	})
	res := &ScriptResult{Values: make([]int64, len(ops)), Rounds: make([]int, len(ops))}
	for i := range res.Rounds {
		res.Rounds[i] = -1
	}
	sink := &scriptGrants{res: res}
	bp, err := mk(cfg.Graph, tr, sink)
	if err != nil {
		return nil, fmt.Errorf("sim: script protocol: %w", err)
	}
	d := &scriptDriver{p: bp, ops: ops, order: order, last: last}
	d.tick, _ = bp.(BridgeTicker)
	var proto Protocol = d
	if d.tick != nil || last > 0 {
		// Only a schedule past round 0 or a ticking protocol needs the
		// engine's per-node tick loop; one-shot scripts skip it.
		proto = tickingScript{d}
	}
	nw := New(cfg, proto)
	sink.env = nw.Env()
	if res.Stats, err = nw.Run(); err != nil {
		return nil, err
	}
	for i, r := range res.Rounds {
		if r < 0 {
			return nil, fmt.Errorf("sim: script op %d (node %d, round %d) never granted", i, ops[i].Node, ops[i].Round)
		}
		res.TotalLatency += r - ops[i].Round
	}
	return res, nil
}

// scriptGrants is the driver's Grants sink: the token is the op index.
type scriptGrants struct {
	res *ScriptResult
	env *Env
}

func (s *scriptGrants) Grant(token int, value int64) {
	if token < 0 || token >= len(s.res.Rounds) || s.res.Rounds[token] >= 0 {
		return
	}
	s.res.Values[token] = value
	s.res.Rounds[token] = s.env.Round()
}

// scriptDriver adapts a BridgeProtocol plus its schedule to the engine's
// Protocol and Scheduler; tickingScript adds the Ticker. order lists op
// indices by (Round, Node); the engine ticks every node in node order
// every round, so one cursor walks it.
type scriptDriver struct {
	p     BridgeProtocol
	tick  BridgeTicker // p's Tick, nil if it has none
	ops   []ScriptOp
	order []int
	next  int // cursor into order
	last  int // last issue round
}

func (d *scriptDriver) Start(env *Env, node int) {
	d.p.Start(env, node)
	d.issue(env, node)
}

// issue issues node's ops due this round, then runs the protocol's Tick.
func (d *scriptDriver) issue(env *Env, node int) {
	for d.next < len(d.order) {
		i := d.order[d.next]
		if d.ops[i].Round != env.Round() || d.ops[i].Node != node {
			break
		}
		d.p.Issue(env, node, i, d.ops[i].Op)
		d.next++
	}
	if d.tick != nil {
		d.tick.Tick(env, node)
	}
}

func (d *scriptDriver) Deliver(env *Env, node int, m Message) { d.p.Deliver(env, node, m) }

// PendingUntil implements Scheduler: the run lasts at least until the
// last scheduled issue.
func (d *scriptDriver) PendingUntil() int { return d.last }

type tickingScript struct{ *scriptDriver }

func (t tickingScript) Tick(env *Env, node int) { t.issue(env, node) }

// VerifyRealTimeOrder validates a script run — counting ops must be
// granted blocks that tile 1..total (countq.ValidateCountRanges), queuing
// ops must form one predecessor chain (countq.ValidateOrder) — and then
// checks the real-time guarantee these protocols actually provide:
// ordering is preserved across *quiescent points*. If at the moment
// operation b is issued every earlier-issued operation has already
// completed, then b must appear after all of them in the order (the queue
// chain, or ascending counts).
//
// Note the deliberately weaker premise than "a completed before b was
// issued": in the arrow protocol an operation can learn its predecessor
// while that predecessor's own queue message is still chasing, so its
// *position* in the chain is not anchored at its completion time. A
// stronger per-pair real-time check is genuinely violated by correct
// executions (property tests found such interleavings); queuing's
// specification orders concurrent operations arbitrarily. This is
// quiescent consistency.
func VerifyRealTimeOrder(ops []ScriptOp, res *ScriptResult) error {
	pos, err := scriptPositions(ops, res)
	if err != nil {
		return err
	}
	// Scan ops by issue time, looking for quiescent points.
	byIssue := make([]int, len(ops))
	for op := range byIssue {
		byIssue[op] = op
	}
	sort.Slice(byIssue, func(i, j int) bool {
		return ops[byIssue[i]].Round < ops[byIssue[j]].Round
	})
	maxDone := -1
	maxPos := -1
	for i := 0; i < len(byIssue); {
		// Group ops sharing an issue time.
		j := i
		t := ops[byIssue[i]].Round
		for j < len(byIssue) && ops[byIssue[j]].Round == t {
			j++
		}
		if i > 0 && maxDone < t {
			// Quiescent point: everything issued before t also
			// completed before t, so it must all precede this group.
			for _, op := range byIssue[i:j] {
				if pos[op] < maxPos {
					return fmt.Errorf("sim: op %d issued at quiescent time %d placed at %d, before an earlier completed op at %d",
						op, t, pos[op], maxPos)
				}
			}
		}
		for _, op := range byIssue[i:j] {
			if res.Rounds[op] > maxDone {
				maxDone = res.Rounds[op]
			}
			if pos[op] > maxPos {
				maxPos = pos[op]
			}
		}
		i = j
	}
	return nil
}

// scriptPositions validates the run and returns each op's position in
// the total order it formed: its count, or its index in the queue chain.
func scriptPositions(ops []ScriptOp, res *ScriptResult) ([]int, error) {
	if len(res.Values) != len(ops) || len(res.Rounds) != len(ops) {
		return nil, fmt.Errorf("sim: result covers %d ops, script has %d", len(res.Values), len(ops))
	}
	pos := make([]int, len(ops))
	var ids []int64
	var blocks []countq.CountRange
	for i, o := range ops {
		if o.Op.Kind == countq.OpEnqueue {
			ids = append(ids, o.Op.ID)
		} else {
			blocks = append(blocks, countq.CountRange{First: res.Values[i], N: o.Op.N})
			pos[i] = int(res.Values[i])
		}
	}
	switch {
	case len(ids) > 0 && len(blocks) > 0:
		return nil, fmt.Errorf("sim: script mixes counting and queuing ops")
	case len(blocks) > 0:
		return pos, countq.ValidateCountRanges(nil, blocks)
	}
	if err := countq.ValidateOrder(ids, res.Values); err != nil {
		return nil, err
	}
	next := make(map[int64]int, len(ops)) // predecessor id → op
	for i, p := range res.Values {
		next[p] = i
	}
	cur := countq.Head
	for k := range ops {
		op := next[cur]
		pos[op] = k
		cur = ops[op].Op.ID
	}
	return pos, nil
}
