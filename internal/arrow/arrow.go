// Package arrow implements the arrow distributed queuing protocol of
// Raymond (1989) and Demmer–Herlihy (1998) on the synchronous network
// simulator, in the one-shot concurrent setting analyzed in Section 4 of
// Busch & Tirthapura.
//
// The protocol runs on a spanning tree T of the communication graph. Every
// node v keeps an arrow link(v) pointing to the tree neighbor through which
// the current queue tail can be reached (or to v itself if v holds the
// tail), and id(v), the identifier of the last operation that originated at
// v. A queuing operation sends a queue(a) message that chases the arrows,
// reversing each one it crosses; when it reaches a node whose arrow points
// to itself, the operation is queued behind that node's last operation.
//
// One-shot operation identifiers are the originating node ids. The delay of
// an operation is, by default, the round in which its queue message
// terminates (the accounting used by Theorem 4.1); with WithResponse set,
// an explicit response message is routed back over the tree and the delay is
// its delivery round.
//
// The long-lived protocol, where operations arrive over time, is
// NewQueueBridge: a sim.BridgeProtocol that sim.RunScript drives from a
// fixed schedule and the sim bridge serves live as `sim-arrow-queue`. The
// one-shot Protocol stays as the time-zero reference it is tested
// against.
package arrow

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tree"
)

// Message kinds.
const (
	kindQueue    = iota + 1 // A = operation id (origin node)
	kindResponse            // A = operation id, B = predecessor op id
)

// Head is the pseudo-identifier of the queue head: the predecessor reported
// to the first operation in the total order.
const Head = -1

// None marks a node with no completed operation.
const None = -2

// Protocol is the arrow protocol state for one one-shot execution.
// Construct with New, run it under sim.New, then inspect Pred/Delay.
type Protocol struct {
	tree        *tree.Tree
	router      *tree.Router
	initialTail int
	requests    []bool
	withResp    bool

	link  []int
	id    []int
	pred  []int // pred[v] = predecessor of v's op; None if absent/incomplete
	delay []int // delay[v] = completion round of v's op; -1 if incomplete
}

// Option configures a Protocol.
type Option func(*Protocol)

// WithResponse makes the terminating node route an explicit response back
// to the operation's origin; delays then include the return path and its
// contention. Theorem 4.1's accounting (the default) charges only the
// queue-message path.
func WithResponse() Option { return func(p *Protocol) { p.withResp = true } }

// New prepares a one-shot arrow execution on spanning tree t with the given
// initial tail node and request set (requests[v] reports whether v issues a
// queuing operation at time zero).
func New(t *tree.Tree, initialTail int, requests []bool, opts ...Option) (*Protocol, error) {
	n := t.N()
	if len(requests) != n {
		return nil, fmt.Errorf("arrow: request vector has %d entries, want %d", len(requests), n)
	}
	if initialTail < 0 || initialTail >= n {
		return nil, fmt.Errorf("arrow: initial tail %d out of range", initialTail)
	}
	p := &Protocol{
		tree:        t,
		router:      t.NewRouter(),
		initialTail: initialTail,
		requests:    append([]bool(nil), requests...),
		link:        make([]int, n),
		id:          make([]int, n),
		pred:        make([]int, n),
		delay:       make([]int, n),
	}
	for _, o := range opts {
		o(p)
	}
	// Initialization (free, per the paper's model): arrows point toward
	// the initial tail; id(v) is None everywhere except the tail, which
	// holds the queue-head pseudo-operation.
	for v := 0; v < n; v++ {
		if v == initialTail {
			p.link[v] = v
		} else {
			p.link[v] = p.router.NextHop(v, initialTail)
		}
		p.id[v] = None
		p.pred[v] = None
		p.delay[v] = -1
	}
	p.id[initialTail] = Head
	return p, nil
}

// Start issues node's queuing operation at time zero.
func (p *Protocol) Start(env *sim.Env, node int) {
	if !p.requests[node] {
		return
	}
	target := p.link[node]
	prev := p.id[node] // Head iff node is the initial tail
	p.id[node] = node
	if target == node {
		// The node holds the tail: its operation queues behind the
		// head pseudo-operation instantly, with zero delay.
		p.complete(env, node, node, prev)
		return
	}
	p.link[node] = node
	env.Send(node, target, sim.Message{Kind: kindQueue, A: node})
}

// Deliver handles queue and response messages.
func (p *Protocol) Deliver(env *sim.Env, node int, m sim.Message) {
	switch m.Kind {
	case kindQueue:
		op := m.A
		old := p.link[node]
		p.link[node] = m.From
		if old == node {
			// Terminated: op is queued behind id(node).
			p.complete(env, node, op, p.id[node])
			return
		}
		env.Send(node, old, sim.Message{Kind: kindQueue, A: op})
	case kindResponse:
		if m.B == None {
			env.Fail(fmt.Errorf("arrow: response with no predecessor"))
			return
		}
		if node != m.A {
			// Route onward toward the origin.
			env.Send(node, p.router.NextHop(node, m.A), m)
			return
		}
		p.pred[node] = m.B
		p.delay[node] = env.Round()
	}
}

// complete records that op's predecessor was determined at node `at`.
func (p *Protocol) complete(env *sim.Env, at, op, pred int) {
	if !p.withResp || at == op {
		p.pred[op] = pred
		p.delay[op] = env.Round()
		return
	}
	env.Send(at, p.router.NextHop(at, op), sim.Message{Kind: kindResponse, A: op, B: pred})
}

// Pred returns the predecessor operation of node v's operation (Head for
// the first in the order), or None if v issued no operation.
func (p *Protocol) Pred(v int) int { return p.pred[v] }

// Delay returns the completion round of v's operation, or -1.
func (p *Protocol) Delay(v int) int { return p.delay[v] }

// TotalDelay sums the delays of all requests (the paper's concurrent delay
// complexity for this request set).
func (p *Protocol) TotalDelay() int {
	total := 0
	for v, req := range p.requests {
		if req {
			total += p.delay[v]
		}
	}
	return total
}

// MaxDelay returns the largest single-operation delay.
func (p *Protocol) MaxDelay() int {
	max := 0
	for v, req := range p.requests {
		if req && p.delay[v] > max {
			max = p.delay[v]
		}
	}
	return max
}

// Order reconstructs the total order of operations from the predecessor
// pointers, starting at the queue head.
func (p *Protocol) Order() ([]int, error) {
	succ := make(map[int]int)
	count := 0
	for v, req := range p.requests {
		if !req {
			continue
		}
		count++
		pr := p.pred[v]
		if pr == None {
			return nil, fmt.Errorf("arrow: operation %d incomplete", v)
		}
		if _, dup := succ[pr]; dup {
			return nil, fmt.Errorf("arrow: two operations claim predecessor %d", pr)
		}
		succ[pr] = v
	}
	order := make([]int, 0, count)
	cur, ok := succ[Head]
	for ok {
		order = append(order, cur)
		cur, ok = succ[cur]
	}
	if len(order) != count {
		return nil, fmt.Errorf("arrow: predecessor chain covers %d of %d operations", len(order), count)
	}
	return order, nil
}

// VerifyOrder checks that the predecessor pointers of all requests form a
// single total order starting at the queue head — the correctness condition
// of distributed queuing.
func (p *Protocol) VerifyOrder() error {
	_, err := p.Order()
	return err
}
