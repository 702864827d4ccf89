package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/countq"
)

// The benchmark measures countq.Run from outside. It cannot see inside
// the runner, so every live workload names pass-through structures that
// the benchmark registers here. A pass-through structure builds the real
// structure from its spec, records when construction ended, and keeps the
// handle so the sim bridge's SimStats can be read after the run.
//
// In an untraced run it returns the real sessions unwrapped, so it adds
// nothing per operation. In a traced run it wraps each session in a
// recorder that times every Kth call, K being the runner's latency sample
// rate. Either way Drainer, io.Closer, BatchSession and AsyncSession are
// forwarded, so validation and close behave exactly as with the real
// structure.

// sampleEvery is the runner's default latency sample rate (one timed
// operation in 64, see countq.Workload.LatencySample); traced sessions
// time calls at the same rate.
const sampleEvery = 64

// collector gathers what the pass-through structures observe during one
// countq.Run. Exactly one is active at a time.
type collector struct {
	tr *tracer // nil in untraced runs

	mu      sync.Mutex
	builtAt time.Time // when the last structure finished construction
	structs []*passStructure
	calls   [2]callStats // indexed by countq.OpKind
	spans   []span
	nextSes int
}

// callStats is the timed-call total of one operation kind.
type callStats struct {
	n  int64
	ns int64
}

func (c callStats) mean() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.n)
}

var (
	activeMu sync.Mutex
	active   *collector
)

// collect makes a fresh collector the one pass-through structures report
// to, and returns it.
func collect(tr *tracer) *collector {
	c := &collector{tr: tr}
	activeMu.Lock()
	active = c
	activeMu.Unlock()
	return c
}

func activeCollector() *collector {
	activeMu.Lock()
	defer activeMu.Unlock()
	return active
}

// simStats sums SimStats over the structures of one kind that expose it;
// ok is false when none does.
func (c *collector) simStats(kind countq.Kind) (rounds, msgs int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.structs {
		if p.kind != kind {
			continue
		}
		if s, has := p.inner.(interface{ SimStats() (int64, int64) }); has {
			r, m := s.SimStats()
			rounds, msgs, ok = rounds+r, msgs+m, true
		}
	}
	return rounds, msgs, ok
}

// registerPass registers name as a pass-through for inner, a structure
// spec of the given kind, declaring the same capabilities as inner.
func registerPass(name, inner string, kind countq.Kind) {
	spec, err := countq.ParseSpec(inner)
	if err != nil {
		panic(err)
	}
	info, ok := countq.LookupStructure(spec.Name, kind)
	if !ok {
		panic(fmt.Sprintf("perfbench: %v %q is not registered", kind, spec.Name))
	}
	countq.RegisterStructure(countq.StructureInfo{
		Name:         name,
		Summary:      "benchmark pass-through for " + inner,
		Kinds:        kind,
		Linearizable: info.Linearizable,
		Caps:         info.Caps,
		New: func(countq.Options) (countq.Structure, error) {
			s, err := countq.NewStructure(inner, kind)
			if err != nil {
				return nil, err
			}
			c := activeCollector()
			p := &passStructure{inner: s, kind: kind, col: c}
			c.mu.Lock()
			c.builtAt = time.Now()
			c.structs = append(c.structs, p)
			c.mu.Unlock()
			return p, nil
		},
	})
}

// passStructure forwards to the structure it wraps.
type passStructure struct {
	inner countq.Structure
	kind  countq.Kind
	col   *collector
}

func (p *passStructure) NewSession() (countq.Session, error) {
	s, err := p.inner.NewSession()
	if err != nil || p.col.tr == nil {
		return s, err
	}
	return p.col.wrap(s), nil
}

// Drain forwards the Drainer capability, whether the inner structure
// implements it or wraps a legacy counter that does.
func (p *passStructure) Drain() []int64 { return countq.DrainCounts(p.inner) }

// Close forwards io.Closer.
func (p *passStructure) Close() error {
	if c, ok := p.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// wrap returns a recording session over s that implements exactly the
// capability interfaces s implements.
func (c *collector) wrap(s countq.Session) countq.Session {
	c.mu.Lock()
	c.nextSes++
	id := c.nextSes
	c.mu.Unlock()
	r := &recSession{inner: s, col: c, tr: c.tr, id: uint64(id) << 32}
	b, isBatch := s.(countq.BatchSession)
	a, isAsync := s.(countq.AsyncSession)
	switch {
	case isBatch && isAsync:
		return &recBatchAsync{recBatch{r, b}, a}
	case isBatch:
		return &recBatch{r, b}
	case isAsync:
		return &recAsync{r, a}
	}
	return r
}

// recSession times every sampleEvery-th call into the session it wraps
// and records it as a span. It is owned by one worker goroutine, like the
// session itself; its totals reach the collector when it is closed.
type recSession struct {
	inner countq.Session
	col   *collector
	tr    *tracer
	id    uint64 // session number in the high bits; the op sequence below
	seq   uint64
	calls [2]callStats
	spans []span
}

// timed reports whether this call is one the recorder times.
func (s *recSession) timed() bool {
	s.seq++
	return s.seq%sampleEvery == 0
}

func (s *recSession) record(kind countq.OpKind, name string, t0, t1 time.Time) {
	d := t1.Sub(t0).Nanoseconds()
	s.calls[kind].n++
	s.calls[kind].ns += d
	s.spans = append(s.spans, span{Op: s.id | s.seq, Name: name, Start: s.tr.at(t0), End: s.tr.at(t1)})
}

func (s *recSession) Inc(ctx context.Context) (int64, error) {
	if !s.timed() {
		return s.inner.Inc(ctx)
	}
	t0 := time.Now()
	v, err := s.inner.Inc(ctx)
	s.record(countq.OpInc, "session.Inc", t0, time.Now())
	return v, err
}

func (s *recSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	if !s.timed() {
		return s.inner.Enqueue(ctx, id)
	}
	t0 := time.Now()
	v, err := s.inner.Enqueue(ctx, id)
	s.record(countq.OpEnqueue, "session.Enqueue", t0, time.Now())
	return v, err
}

func (s *recSession) Close() error {
	err := s.inner.Close()
	c := s.col
	c.mu.Lock()
	for k := range s.calls {
		c.calls[k].n += s.calls[k].n
		c.calls[k].ns += s.calls[k].ns
	}
	c.spans = append(c.spans, s.spans...)
	c.mu.Unlock()
	s.spans = nil
	return err
}

type recBatch struct {
	*recSession
	b countq.BatchSession
}

func (s *recBatch) IncN(ctx context.Context, n int64) (int64, error) {
	if !s.timed() {
		return s.b.IncN(ctx, n)
	}
	t0 := time.Now()
	v, err := s.b.IncN(ctx, n)
	s.record(countq.OpInc, "session.IncN", t0, time.Now())
	return v, err
}

type recAsync struct {
	*recSession
	a countq.AsyncSession
}

func (s *recAsync) Submit(ctx context.Context, op countq.Op) error {
	return submit(ctx, s.recSession, s.a, op)
}

func (s *recAsync) Completions() <-chan countq.Completion { return s.a.Completions() }

type recBatchAsync struct {
	recBatch
	a countq.AsyncSession
}

func (s *recBatchAsync) Submit(ctx context.Context, op countq.Op) error {
	return submit(ctx, s.recSession, s.a, op)
}

func (s *recBatchAsync) Completions() <-chan countq.Completion { return s.a.Completions() }

func submit(ctx context.Context, s *recSession, a countq.AsyncSession, op countq.Op) error {
	if !s.timed() {
		return a.Submit(ctx, op)
	}
	t0 := time.Now()
	err := a.Submit(ctx, op)
	s.record(op.Kind, "session.Submit", t0, time.Now())
	return err
}
