package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/countq"
	"repro/internal/sim"
)

// Fixtures the benchmark registers or drives itself. They live here, not
// in the repository's test files, because a test package cannot be
// imported.

// nullLease is how many counts a null-counter session leases at once:
// large enough that the shared counter is written once per tens of
// thousands of operations, so a run against it measures the runner alone.
const nullLease = 1 << 16

// nullCounter is the runner's floor: each session hands out counts from a
// private lease and touches the shared cursor only to lease again.
// Closing a session surrenders the unused rest of its lease, and Drain
// returns those counts, so the run still validates gap-free.
type nullCounter struct {
	next atomic.Int64 // first count not yet leased

	mu   sync.Mutex
	left []int64 // surrendered lease remainders
}

// nullPipeline bounds a null session's outstanding async operations.
const nullPipeline = 256

func (c *nullCounter) NewSession() (countq.Session, error) {
	return &nullSession{c: c, done: make(chan countq.Completion, nullPipeline)}, nil
}

func (c *nullCounter) Drain() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.left
	c.left = nil
	return out
}

// nullSession serves Inc synchronously and, for the async path, completes
// every Submit at once into its buffered completion channel.
type nullSession struct {
	c        *nullCounter
	cur, end int64 // lease [cur, end)
	done     chan countq.Completion
}

func (s *nullSession) Inc(ctx context.Context) (int64, error) {
	if s.cur == s.end {
		s.end = s.c.next.Add(nullLease)
		s.cur = s.end - nullLease
	}
	v := s.cur
	s.cur++
	return v, nil
}

func (s *nullSession) Enqueue(context.Context, int64) (int64, error) {
	return 0, fmt.Errorf("perfbench: Enqueue on the null counter: %w", countq.ErrUnsupported)
}

func (s *nullSession) Submit(ctx context.Context, op countq.Op) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if op.Kind != countq.OpInc || op.N > 1 {
		return fmt.Errorf("perfbench: null counter serves single Inc only: %w", countq.ErrUnsupported)
	}
	v, _ := s.Inc(ctx)
	select {
	case s.done <- countq.Completion{Op: op, Value: v}:
		return nil
	default:
		// Unreachable while the runner keeps fewer than nullPipeline
		// operations outstanding; give the count back so validation holds.
		s.cur--
		return errors.New("perfbench: null counter pipeline full")
	}
}

func (s *nullSession) Completions() <-chan countq.Completion { return s.done }

func (s *nullSession) Close() error {
	s.c.mu.Lock()
	for v := s.cur; v < s.end; v++ {
		s.c.left = append(s.c.left, v)
	}
	s.c.mu.Unlock()
	s.cur = s.end
	return nil
}

// faultyCounter hands out one count twice: the self-test counter that
// validation must reject.
type faultyCounter struct{ next atomic.Int64 }

// faultyRepeat is the count the faulty counter hands out a second time.
const faultyRepeat = 1000

func (c *faultyCounter) Inc() int64 {
	n := c.next.Add(1)
	if n == faultyRepeat+1 {
		return faultyRepeat
	}
	return n
}

func init() {
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "perfbench-null",
		Summary:      "runner floor: per-session leases, no shared write per operation",
		Kinds:        countq.KindCounter,
		Linearizable: false,
		Caps:         countq.CapHandle | countq.CapAsync,
		New: func(countq.Options) (countq.Structure, error) {
			c := &nullCounter{}
			c.next.Store(1)
			return c, nil
		},
	})
	countq.RegisterCounter(countq.CounterInfo{
		Name:    "perfbench-faulty",
		Summary: "failure-accounting self-test: returns one count twice",
		New:     func(countq.Options) (countq.Counter, error) { return &faultyCounter{}, nil },
	})
}

// grantAtIssue grants every operation the moment Issue runs and routes no
// message, so a round trip through it costs only the bridge transport:
// the submit lane, the pump's sweep, the grant and the session's wait.
type grantAtIssue struct {
	grants sim.Grants
	next   int64
}

func (p *grantAtIssue) Start(*sim.Env, int) {}

func (p *grantAtIssue) Issue(env *sim.Env, node int, token int, op countq.Op) {
	p.next++
	p.grants.Grant(token, p.next)
}

func (p *grantAtIssue) Deliver(*sim.Env, int, sim.Message) {}

// echo keeps the engine busy with no protocol logic: every node pings each
// neighbour once at start, and every delivered message goes straight back
// to its sender, so each round moves one message per directed edge.
type echo struct{}

func (echo) Start(env *sim.Env, node int) {
	for _, nb := range env.Graph().Neighbors(node) {
		env.Send(node, nb, sim.Message{From: node, To: nb, Kind: 1})
	}
}

func (echo) Deliver(env *sim.Env, node int, m sim.Message) {
	env.Send(node, m.From, sim.Message{From: node, To: m.From, Kind: 1})
}
