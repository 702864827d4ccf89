package countq

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testCounter and testQueue are minimal in-package implementations so the
// registry and driver can be tested without importing internal/shm (which
// would register its own entries and couple the tests to that set).
type testCounter struct{ v atomic.Int64 }

func (c *testCounter) Inc() int64 { return c.v.Add(1) }

// testParamCounter exercises the options path: "start" offsets the first
// count (useful only to observe that the parameter arrived).
type testParamCounter struct {
	start int64
	v     atomic.Int64
}

func (c *testParamCounter) Inc() int64 { return c.start + c.v.Add(1) }

// testBatchCounter implements BatchIncrementer.
type testBatchCounter struct{ v atomic.Int64 }

func (c *testBatchCounter) Inc() int64         { return c.v.Add(1) }
func (c *testBatchCounter) IncN(n int64) int64 { return c.v.Add(n) - n + 1 }

// testHandleStructure is a native CapHandle structure in miniature: each
// session leases blocks of testLease counts off the shared high-water
// mark, Close surrenders the remainder, Drain returns every surrendered
// count.
type testHandleStructure struct {
	next   atomic.Int64
	closes atomic.Int64
	mu     sync.Mutex
	free   []int64
}

const testLease = 4

func (c *testHandleStructure) NewSession() (Session, error) { return &testHandleSession{c: c}, nil }

func (c *testHandleStructure) Drain() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.free
	c.free = nil
	return out
}

type testHandleSession struct {
	c      *testHandleStructure
	lo, hi int64 // private lease: [lo, hi) remain
}

func (h *testHandleSession) Inc(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if h.lo == h.hi {
		hi := h.c.next.Add(testLease)
		h.lo, h.hi = hi-testLease+1, hi+1
	}
	v := h.lo
	h.lo++
	return v, nil
}

func (h *testHandleSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	return 0, ErrUnsupported
}

func (h *testHandleSession) Close() error {
	h.c.closes.Add(1)
	h.c.mu.Lock()
	for v := h.lo; v < h.hi; v++ {
		h.c.free = append(h.c.free, v)
	}
	h.c.mu.Unlock()
	h.lo, h.hi = 0, 0
	return nil
}

// lastHandleStructure is the most recent test-handle instance the registry
// constructed, so driver tests can observe session lifecycle counts.
var lastHandleStructure atomic.Pointer[testHandleStructure]

type testQueue struct {
	mu   sync.Mutex
	tail int64
}

func (q *testQueue) Enqueue(id int64) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	p := q.tail
	q.tail = id
	return p
}

var registerTestImpls = sync.OnceFunc(func() {
	RegisterCounter(CounterInfo{
		Name: "test-zulu", Summary: "test counter z", Linearizable: true,
		New: func(Options) (Counter, error) { return &testCounter{}, nil },
	})
	RegisterCounter(CounterInfo{
		Name: "test-alpha", Summary: "test counter a", Linearizable: true,
		New: func(Options) (Counter, error) { return &testCounter{}, nil },
	})
	RegisterCounter(CounterInfo{
		Name: "test-param", Summary: "test counter with a declared param", Linearizable: true,
		Params: []ParamInfo{{Name: "start", Default: "0", Doc: "offset added to every count"}},
		New: func(o Options) (Counter, error) {
			start := o.Int64("start", 0)
			if err := o.Err(); err != nil {
				return nil, err
			}
			return &testParamCounter{start: start}, nil
		},
	})
	RegisterCounter(CounterInfo{
		Name: "test-batch", Summary: "test counter with IncN", Linearizable: true,
		New: func(Options) (Counter, error) { return &testBatchCounter{}, nil },
	})
	RegisterStructure(StructureInfo{
		Name: "test-handle", Summary: "test counter with per-session leases", Kinds: KindCounter,
		Caps: CapHandle,
		New: func(Options) (Structure, error) {
			c := &testHandleStructure{}
			lastHandleStructure.Store(c)
			return c, nil
		},
	})
	RegisterQueue(QueueInfo{
		Name: "test-queue", Summary: "test queue",
		New: func(Options) (Queuer, error) { return &testQueue{tail: Head}, nil },
	})
})

// firstOp constructs spec for kind and returns the value of one operation
// through a fresh session: the first count, or the first predecessor.
func firstOp(t *testing.T, spec string, kind Kind) (int64, error) {
	t.Helper()
	st, err := NewStructure(spec, kind)
	if err != nil {
		return 0, err
	}
	sess, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if kind == KindQueue {
		return sess.Enqueue(context.Background(), 7)
	}
	return sess.Inc(context.Background())
}

func TestRegistryConstructs(t *testing.T) {
	registerTestImpls()
	if got, err := firstOp(t, "test-alpha", KindCounter); err != nil || got != 1 {
		t.Errorf("first count = %d, %v; want 1", got, err)
	}
	if got, err := firstOp(t, "test-queue", KindQueue); err != nil || got != Head {
		t.Errorf("first pred = %d, %v; want Head", got, err)
	}
	// Each New call must return a fresh instance, not shared state.
	if got, err := firstOp(t, "test-alpha", KindCounter); err != nil || got != 1 {
		t.Errorf("second instance first count = %d, %v; want 1", got, err)
	}
}

func TestRegistryParameterizedSpecs(t *testing.T) {
	registerTestImpls()
	// Parameter reaches the constructor.
	if got, err := firstOp(t, "test-param?start=100", KindCounter); err != nil || got != 101 {
		t.Errorf("parameterized first count = %d, %v; want 101", got, err)
	}
	// Defaults when the spec omits the parameter.
	if got, err := firstOp(t, "test-param", KindCounter); err != nil || got != 1 {
		t.Errorf("default first count = %d, %v; want 1", got, err)
	}
	// Unknown keys are rejected, naming the declared set.
	if _, err := NewStructure("test-param?strat=100", KindCounter); err == nil {
		t.Error("unknown param key accepted")
	} else if !strings.Contains(err.Error(), "start") {
		t.Errorf("unknown-key error does not name declared params: %v", err)
	}
	// Structures with no declared params reject every key.
	if _, err := NewStructure("test-alpha?x=1", KindCounter); err == nil {
		t.Error("param on a param-less counter accepted")
	}
	if _, err := NewStructure("test-queue?x=1", KindQueue); err == nil {
		t.Error("param on a param-less queue accepted")
	}
	// Mistyped values surface the conversion error.
	if _, err := NewStructure("test-param?start=banana", KindCounter); err == nil {
		t.Error("non-integer param value accepted")
	}
	// Malformed spec strings are rejected at parse time.
	if _, err := NewStructure("test-param?start", KindCounter); err == nil {
		t.Error("key without value accepted")
	}
}

func TestRegistryUnknownName(t *testing.T) {
	registerTestImpls()
	if _, err := NewStructure("no-such-counter", KindCounter); err == nil {
		t.Error("unknown counter accepted")
	} else if !strings.Contains(err.Error(), "test-alpha") {
		t.Errorf("error does not name registered alternatives: %v", err)
	}
	if _, err := NewStructure("no-such-queue", KindQueue); err == nil {
		t.Error("unknown queue accepted")
	} else if !strings.Contains(err.Error(), "test-queue") {
		t.Errorf("error does not name registered alternatives: %v", err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	registerTestImpls()
	mustPanic(t, "duplicate counter", func() {
		RegisterCounter(CounterInfo{
			Name: "test-alpha",
			New:  func(Options) (Counter, error) { return &testCounter{}, nil },
		})
	})
	mustPanic(t, "duplicate queue", func() {
		RegisterQueue(QueueInfo{
			Name: "test-queue",
			New:  func(Options) (Queuer, error) { return &testQueue{}, nil },
		})
	})
	mustPanic(t, "empty counter name", func() {
		RegisterCounter(CounterInfo{
			New: func(Options) (Counter, error) { return &testCounter{}, nil },
		})
	})
	mustPanic(t, "nil queue constructor", func() {
		RegisterQueue(QueueInfo{Name: "test-nil"})
	})
	mustPanic(t, "spec metacharacter in name", func() {
		RegisterCounter(CounterInfo{
			Name: "test?bad",
			New:  func(Options) (Counter, error) { return &testCounter{}, nil },
		})
	})
	mustPanic(t, "duplicate param declaration", func() {
		RegisterCounter(CounterInfo{
			Name:   "test-dup-param",
			Params: []ParamInfo{{Name: "x"}, {Name: "x"}},
			New:    func(Options) (Counter, error) { return &testCounter{}, nil },
		})
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: registration did not panic", what)
		}
	}()
	f()
}

func TestRegistryDeterministicOrder(t *testing.T) {
	registerTestImpls()
	for round := 0; round < 5; round++ {
		names := StructureNames(KindCounter)
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Fatalf("counter names not sorted: %v", names)
			}
		}
	}
	// "test-alpha" sorts before "test-zulu" regardless of registration
	// order (zulu was registered first).
	names := StructureNames(KindCounter)
	ai, zi := -1, -1
	for i, n := range names {
		switch n {
		case "test-alpha":
			ai = i
		case "test-zulu":
			zi = i
		}
	}
	if ai < 0 || zi < 0 || ai > zi {
		t.Errorf("deterministic order violated: %v", names)
	}
	var counters []string
	for _, info := range Structures() {
		if info.Kinds.Has(KindCounter) {
			counters = append(counters, info.Name)
		}
	}
	if strings.Join(counters, ",") != strings.Join(names, ",") {
		t.Errorf("Structures() counters %v, StructureNames %v", counters, names)
	}
}
