package sim

import (
	"fmt"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/tree"
)

// The central protocol: every operation routes to the spanning-tree root,
// which assigns counts (or remembers the queue tail) and routes grants
// back. It is the paper's naive baseline — the root's receive capacity
// serializes all n-1 leaves, so the star hub degrades as Θ(n²) — and the
// contrast target for the distributed protocols registered by
// internal/arrow and internal/counting.

const (
	bkReq   = 101 // A = token, B = origin node, C = block size or op id
	bkGrant = 102 // A = token, B = origin node, C = count or predecessor
)

// centralProto implements BridgeProtocol with a single point of
// serialization at the root.
type centralProto struct {
	router *tree.Router
	root   int
	queue  bool
	next   int64 // counter high-water mark at the root
	last   int64 // queue predecessor at the root
	grants Grants
}

// NewCentralCounter is the ProtoMaker of the central counter: the root
// hands out consecutive counts (a whole block per request).
func NewCentralCounter(_ *graph.Graph, tr *tree.Tree, grants Grants) (BridgeProtocol, error) {
	return newCentralProto(tr, false, grants), nil
}

// NewCentralQueue is the ProtoMaker of the central queue: the root
// remembers the tail and hands each request its predecessor.
func NewCentralQueue(_ *graph.Graph, tr *tree.Tree, grants Grants) (BridgeProtocol, error) {
	return newCentralProto(tr, true, grants), nil
}

func newCentralProto(tr *tree.Tree, queue bool, grants Grants) *centralProto {
	return &centralProto{router: tr.NewRouter(), root: tr.Root(), queue: queue, last: countq.Head, grants: grants}
}

func (p *centralProto) Start(*Env, int) {}

// Issue injects an operation at its node: a request routed to the root,
// or — for an operation issued at the root itself — served on the spot
// through the root's own serve path.
//
//countq:hotpath
func (p *centralProto) Issue(env *Env, node int, token int, op countq.Op) {
	payload := int(op.N)
	if p.queue {
		payload = int(op.ID)
	}
	if node == p.root {
		p.serve(env, token, node, payload)
		return
	}
	env.Send(node, p.router.NextHop(node, p.root), Message{Kind: bkReq, A: token, B: node, C: payload})
}

//countq:hotpath
func (p *centralProto) Deliver(env *Env, node int, m Message) {
	switch m.Kind {
	case bkReq:
		if node != p.root {
			env.Send(node, p.router.NextHop(node, p.root), m)
			return
		}
		p.serve(env, m.A, m.B, m.C)
	case bkGrant:
		if node != m.B {
			env.Send(node, p.router.NextHop(node, m.B), m)
			return
		}
		p.grants.Grant(m.A, int64(m.C))
	default:
		failUnexpectedKind(env, m.Kind)
	}
}

// serve runs the root's serialization step for the operation token from
// origin and grants the result — locally when the origin is the root,
// otherwise by routing a grant back.
//
//countq:hotpath
func (p *centralProto) serve(env *Env, token, origin, payload int) {
	var val int64
	if p.queue {
		val = p.last
		p.last = int64(payload)
	} else {
		n := int64(payload)
		if n < 1 {
			n = 1
		}
		val = p.next + 1
		p.next += n
	}
	if origin == p.root {
		p.grants.Grant(token, val)
		return
	}
	env.Send(p.root, p.router.NextHop(p.root, origin), Message{Kind: bkGrant, A: token, B: origin, C: int(val)})
}

// failUnexpectedKind aborts the simulation on a message no protocol
// handler claims — kept out of line so annotated Deliver bodies stay free
// of cold fmt work.
func failUnexpectedKind(env *Env, kind int) {
	env.Fail(fmt.Errorf("sim: bridge got unexpected message kind %d", kind))
}
