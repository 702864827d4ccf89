// Package countq is the public face of the repository's concurrent
// counting and queuing structures — the two sides of Busch & Tirthapura,
// "Concurrent counting is harder than queuing".
//
// Every structure is driven the same way: construct it from a spec with
// NewStructure, give each worker goroutine its own Session, and issue
// Inc or Enqueue through the session with a context. Sessions of
// structures that declare the capabilities also serve IncN block grants
// (BatchSession) and several operations in flight (AsyncSession). The
// registry behind NewStructure is self-registering: the shared-memory
// structures in internal/shm and the simulated message-passing protocols
// in internal/sim register themselves on import, in the manner of
// database/sql drivers, and Structures lists them with their kinds,
// consistency, parameters and capabilities.
//
// On top of sessions sits a phased scenario engine that runs any
// registered counter/queuer pair under a chosen operation mix, arrival
// pattern, goroutine count and ops budget — as one steady phase, or as a
// named Scenario: a self-registering sequence of Phases that ramps
// goroutines, alternates arrival bursts, shifts the operation mix, or
// toggles batching while the structures persist. Scenarios compose with
// ';' (or the Compose/Then combinator), and the Campaign layer runs
// several structure specs under one scenario's byte-identical phase
// sequence, reporting per-structure Metrics plus deltas against a
// baseline. The paper's counting-versus-queuing contrast as one function
// call.
//
// Structures are constructed from specs: a bare registry name builds the
// structure at its declared defaults, and a DSN-style parameter list tunes
// the knobs that control its coordination cost. Every parameter is
// declared by the implementation (see StructureInfo.Params); unknown keys
// and mistyped values are rejected, never silently defaulted.
//
// Quickstart:
//
//	import (
//		"repro/countq"
//
//		_ "repro/internal/shm" // register the shared-memory implementations
//	)
//
//	st, err := countq.NewStructure("sharded?batch=16", countq.KindCounter)
//	sess, err := st.NewSession() // one per worker goroutine
//	n, err := sess.Inc(ctx)
//	sess.Close()                 // surrenders the session's unused lease
//
//	m, err := countq.Run(countq.Workload{
//		Counter:    "sharded?batch=16",
//		Queue:      "swap",
//		Scenario:   "ramp?gmax=8", // phased: contention doubles 1 → 8
//		Goroutines: 8,
//		Ops:        100000,
//		Mix:        0.5,
//	})
//
// Run reports structured Metrics rather than a flat average: per-phase
// and aggregate latency histograms with p50/p90/p99/p999/max per op kind,
// a windowed throughput timeline, and per-worker op counts with the
// fairness ratio they imply — because quiescently consistent counters
// look fine on means and give themselves away in the tail. Memory is a
// metric of the same rank: every phase reports heap allocations and
// bytes per operation (AllocsPerOp, AllocBytesPerOp) plus a live-heap
// peak timeline (MemTimeline, LivePeakBytes) on the same 16-window clock
// as the throughput timeline. The driver itself measures from outside
// the allocator — workers preallocate their evidence logs and claim op
// budget in chunks before the phase barrier, so the steady-state loops
// run at zero allocations per op (gated by testing.AllocsPerRun in CI)
// and the reported numbers belong to the structure under test, not to
// the harness.
//
// Implementations register a Structure constructor with RegisterStructure.
// A plain synchronous Counter or Queuer — the simplest shared-memory
// implementation — registers through RegisterCounter / RegisterQueue,
// which lift it into a Structure (a BatchIncrementer counter's sessions
// become BatchSessions).
//
// Every run is validated: counts — including IncN block grants — must form
// a gap-free set of distinct values and predecessors must chain into a
// single total order.
package countq

import (
	"fmt"
	"math"
	"sort"
)

// Counter hands out distinct counts 1, 2, 3, … to concurrent callers.
type Counter interface {
	// Inc returns the next count (1-based). Safe for concurrent use.
	Inc() int64
}

// Head is the predecessor reported to the first enqueued operation.
const Head int64 = -1

// Queuer organizes concurrent operations into a total order, telling each
// caller the identity of its predecessor — the shared-memory face of
// distributed queuing. Operation ids must be distinct and non-negative.
type Queuer interface {
	// Enqueue appends id to the total order and returns the identity of
	// its predecessor (Head for the first operation).
	Enqueue(id int64) int64
}

// Drainer is implemented by counter structures whose sessions lease count
// ranges (e.g. the sharded counter). Drain reclaims every leased-but-unused
// count, so that the counts handed out so far plus the drained remainder
// form the gap-free range 1..max. Validation harnesses call it (through
// DrainCounts) after every session is closed, before checking the no-gaps
// property.
type Drainer interface {
	Drain() []int64
}

// BatchIncrementer is implemented by counters that can grant a block of
// counts in one coordination round — the batching escape hatch the paper's
// per-operation lower bound does not price. RegisterCounter lifts it into
// the BatchSession capability the workload driver uses when
// Workload.Batch > 1, and ValidateCountRanges extends the gap-free check
// to block grants.
type BatchIncrementer interface {
	// IncN atomically grants the n consecutive counts
	// first, first+1, …, first+n-1 and returns first. n must be ≥ 1;
	// IncN(1) is equivalent to Inc.
	IncN(n int64) (first int64)
}

// CountRange records one IncN block grant: the counts
// First, First+1, …, First+N-1.
type CountRange struct {
	First int64 `json:"first"`
	N     int64 `json:"n"`
}

// ValidateCounts checks that values is a permutation of 1..len(values) —
// the counting correctness condition (distinct counts, no gaps).
func ValidateCounts(values []int64) error {
	return ValidateCountRanges(values, nil)
}

// ValidateCountRanges checks the counting correctness condition over
// singly granted counts plus IncN block grants: together they must tile
// 1..total exactly, where total = len(values) + Σ blocks[i].N — every
// count distinct, no gaps, blocks fully accounted. It runs in
// O(k log k) time and O(k) space in the number of grants, never sizing
// anything by the claimed totals, so malformed input from a buggy
// implementation yields an error rather than an allocation failure.
func ValidateCountRanges(values []int64, blocks []CountRange) error {
	total := int64(len(values))
	type span struct{ lo, hi int64 } // counts [lo, hi)
	spans := make([]span, 0, len(values)+len(blocks))
	for _, v := range values {
		if v == math.MaxInt64 {
			return fmt.Errorf("countq: count %d overflows", v)
		}
		spans = append(spans, span{v, v + 1})
	}
	for _, b := range blocks {
		if b.N < 1 {
			return fmt.Errorf("countq: block grant of %d counts (want ≥ 1)", b.N)
		}
		if b.First > math.MaxInt64-b.N || b.N > math.MaxInt64-total {
			return fmt.Errorf("countq: block [%d,+%d) overflows", b.First, b.N)
		}
		total += b.N
		spans = append(spans, span{b.First, b.First + b.N})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	next := int64(1) // lowest count not yet accounted for
	for _, s := range spans {
		switch {
		case s.lo < 1 || s.lo > total:
			return fmt.Errorf("countq: count %d outside 1..%d", s.lo, total)
		case s.lo < next:
			return fmt.Errorf("countq: count %d duplicated", s.lo)
		case s.lo > next:
			return fmt.Errorf("countq: count %d missing (gap before %d)", next, s.lo)
		}
		next = s.hi
	}
	return nil
}

// ValidateOrder checks the queuing correctness condition on a set of
// (id, predecessor) pairs: predecessors are distinct, exactly one operation
// queued behind Head, and the successor chain covers every operation.
func ValidateOrder(ids, preds []int64) error {
	if len(ids) != len(preds) {
		return fmt.Errorf("countq: %d ids but %d preds", len(ids), len(preds))
	}
	idSet := make(map[int64]bool, len(ids))
	succ := make(map[int64]int64, len(ids))
	for i, id := range ids {
		// Distinct ids also guarantee the chain walk below terminates:
		// with one (id, pred) pair per id, no id can be reached twice.
		if idSet[id] {
			return fmt.Errorf("countq: operation id %d duplicated", id)
		}
		idSet[id] = true
		p := preds[i]
		if _, dup := succ[p]; dup {
			return fmt.Errorf("countq: predecessor %d claimed twice", p)
		}
		succ[p] = id
	}
	count := 0
	cur, ok := succ[Head]
	for ok {
		count++
		cur, ok = succ[cur]
	}
	if count != len(ids) {
		return fmt.Errorf("countq: chain covers %d of %d operations", count, len(ids))
	}
	return nil
}
