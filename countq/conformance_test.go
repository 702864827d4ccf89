// Conformance suite for the session API: every structure registered by
// the real backends (the shared-memory zoo and the sim bridge) is driven
// through the session layer — sync, handle, batch and async paths — under
// the race detector. External test package so it can import the
// registering packages without a cycle.
package countq_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/countq"
	_ "repro/internal/arrow"    // registers sim-arrow-queue
	_ "repro/internal/counting" // registers sim-tree-counter
	"repro/internal/shm"
	"repro/internal/sim"
)

// Keep the zoo and the bridges registered (all self-register on import).
var (
	_ = shm.VariantSpecs
	_ = sim.BridgeConfig{}
)

// conformanceSpec returns the spec the suite drives a structure with:
// defaults for the zoo, a free-running network for the bridge so the suite
// measures correctness, not hop latency.
func conformanceSpec(info countq.StructureInfo) string {
	if strings.HasPrefix(info.Name, "sim-") {
		return info.Name + "?hoplat=0"
	}
	return info.Name
}

// TestSessionConformance drives every registered structure through the
// workload driver's session paths. Each path ends in the driver's own
// validation pass (counts gap-free, predecessors one total order), so a
// pass here proves the session adapters preserve every structure's
// correctness contract.
func TestSessionConformance(t *testing.T) {
	for _, info := range countq.Structures() {
		info := info
		t.Run(fmt.Sprintf("%s-%s", info.Name, info.Kinds), func(t *testing.T) {
			t.Parallel()
			spec := conformanceSpec(info)
			base := countq.Workload{Goroutines: 4, Ops: 1200, Seed: 1}
			if info.Kinds.Has(countq.KindCounter) {
				base.Counter = spec
			} else {
				base.Queue = spec
			}
			paths := []countq.Workload{base}
			if info.Caps.Has(countq.CapBatch) {
				w := base
				w.Batch = 16
				paths = append(paths, w)
			}
			if info.Caps.Has(countq.CapAsync) {
				w := base
				w.Inflight = 8
				paths = append(paths, w)
			}
			for _, w := range paths {
				m, err := countq.Run(w)
				if err != nil {
					t.Errorf("driver path %+v: %v", w, err)
					continue
				}
				if m.Aggregate.Ops != w.Ops {
					t.Errorf("driver path %+v: ops = %d, want %d", w, m.Aggregate.Ops, w.Ops)
				}
			}
		})
	}
}

// TestSessionMatchesLegacyValidation drives each counter structure through
// sessions by hand (not via Run), so the suite checks the session layer
// itself rather than the driver: concurrent sessions, each closed before
// the drain, must hand out counts that validate as one gap-free range
// together with the structure's drained remainder.
func TestSessionMatchesLegacyValidation(t *testing.T) {
	const workers, perWorker = 4, 64
	for _, info := range countq.Structures() {
		if !info.Kinds.Has(countq.KindCounter) {
			continue
		}
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			st, err := countq.NewStructure(conformanceSpec(info), countq.KindCounter)
			if err != nil {
				t.Fatal(err)
			}
			defer closeIfCloser(st)
			var mu sync.Mutex
			var counts []int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess, err := st.NewSession()
					if err != nil {
						t.Error(err)
						return
					}
					defer sess.Close()
					local := make([]int64, 0, perWorker)
					for i := 0; i < perWorker; i++ {
						v, err := sess.Inc(context.Background())
						if err != nil {
							t.Error(err)
							return
						}
						local = append(local, v)
					}
					mu.Lock()
					counts = append(counts, local...)
					mu.Unlock()
				}()
			}
			wg.Wait()
			counts = append(counts, countq.DrainCounts(st)...)
			if err := countq.ValidateCounts(counts); err != nil {
				t.Errorf("session path failed validation: %v", err)
			}
		})
	}
}

func closeIfCloser(st countq.Structure) {
	if c, ok := st.(interface{ Close() error }); ok {
		c.Close()
	}
}

// TestSessionCloseSurrendersLeases pins the lease contract: a counter
// whose sessions lease count blocks must, after every session is closed,
// drain to a gap-free range — Session.Close surrenders the per-session
// lease remainder.
func TestSessionCloseSurrendersLeases(t *testing.T) {
	st, err := countq.NewStructure("sharded?batch=16", countq.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int64
	for s := 0; s < 3; s++ {
		sess, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ { // 10 < 16: a remainder stays leased
			v, err := sess.Inc(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, v)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	counts = append(counts, countq.DrainCounts(st)...)
	if err := countq.ValidateCounts(counts); err != nil {
		t.Fatalf("drained counts invalid: %v", err)
	}
}

// TestAsyncSessionContextCancellation pins the AsyncSession cancellation
// contract for every async-capable structure: a cancelled context is
// refused at Submit and at the synchronous entry points, and the session
// keeps working afterwards.
func TestAsyncSessionContextCancellation(t *testing.T) {
	for _, info := range countq.Structures() {
		if !info.Caps.Has(countq.CapAsync) {
			continue
		}
		info := info
		t.Run(info.Name, func(t *testing.T) {
			kind := countq.KindCounter
			op := countq.Op{Kind: countq.OpInc, N: 1}
			if !info.Kinds.Has(countq.KindCounter) {
				kind = countq.KindQueue
				op = countq.Op{Kind: countq.OpEnqueue, ID: 7}
			}
			st, err := countq.NewStructure(conformanceSpec(info), kind)
			if err != nil {
				t.Fatal(err)
			}
			defer closeIfCloser(st)
			sess, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			as, ok := sess.(countq.AsyncSession)
			if !ok {
				t.Fatalf("structure %s declares CapAsync but its session is not an AsyncSession", info.Name)
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if err := as.Submit(cancelled, op); err == nil {
				t.Error("Submit with a cancelled context accepted")
			}
			if kind == countq.KindCounter {
				if _, err := sess.Inc(cancelled); err == nil {
					t.Error("Inc with a cancelled context accepted")
				}
			} else {
				if _, err := sess.Enqueue(cancelled, 9); err == nil {
					t.Error("Enqueue with a cancelled context accepted")
				}
			}
			// The session survives refused submissions: one live round trip.
			if err := as.Submit(context.Background(), op); err != nil {
				t.Fatalf("live Submit after cancelled attempts: %v", err)
			}
			c := <-as.Completions()
			if c.Err != nil {
				t.Fatalf("completion after cancelled attempts: %v", c.Err)
			}
		})
	}
}

// TestSessionKindGating pins ErrUnsupported: the wrong op kind on a
// single-kind structure's session reports the sentinel, for every
// registered structure.
func TestSessionKindGating(t *testing.T) {
	for _, info := range countq.Structures() {
		if info.Kinds.Has(countq.KindCounter) && info.Kinds.Has(countq.KindQueue) {
			continue // dual-kind structures gate nothing
		}
		info := info
		t.Run(info.Name, func(t *testing.T) {
			kind := countq.KindCounter
			if !info.Kinds.Has(countq.KindCounter) {
				kind = countq.KindQueue
			}
			st, err := countq.NewStructure(conformanceSpec(info), kind)
			if err != nil {
				t.Fatal(err)
			}
			defer closeIfCloser(st)
			sess, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if kind == countq.KindCounter {
				_, err = sess.Enqueue(context.Background(), 1)
			} else {
				_, err = sess.Inc(context.Background())
			}
			if err == nil {
				t.Fatal("wrong-kind operation accepted")
			}
			if !strings.Contains(err.Error(), countq.ErrUnsupported.Error()) {
				t.Errorf("wrong-kind error does not wrap ErrUnsupported: %v", err)
			}
		})
	}
}

// TestRegistryV3Catalogue pins the registry-wide invariants the CLI and
// the benches rely on: every structure's declared caps are exactly the
// capability interfaces a fresh session implements (BatchSession checked
// on counters), every queue reports
// linearizable, and the sim bridge is registered async-capable.
func TestRegistryV3Catalogue(t *testing.T) {
	for _, info := range countq.Structures() {
		kind := countq.KindCounter
		if !info.Kinds.Has(kind) {
			kind = countq.KindQueue
		}
		if kind == countq.KindQueue && !info.Linearizable {
			t.Errorf("queue %s does not report Linearizable", info.Name)
		}
		st, err := countq.NewStructure(conformanceSpec(info), kind)
		if err != nil {
			t.Errorf("%s: %v", info.Name, err)
			continue
		}
		sess, err := st.NewSession()
		if err != nil {
			t.Errorf("%s: %v", info.Name, err)
			closeIfCloser(st)
			continue
		}
		// IncN is a counting operation: a queue-only structure whose session
		// type is shared with a counter may carry it, but never declares it.
		_, isBatch := sess.(countq.BatchSession)
		if kind == countq.KindQueue {
			isBatch = false
		}
		if info.Caps.Has(countq.CapBatch) != isBatch {
			t.Errorf("%s %s: CapBatch=%v but BatchSession=%v", info.Kinds, info.Name, info.Caps.Has(countq.CapBatch), isBatch)
		}
		_, isAsync := sess.(countq.AsyncSession)
		if info.Caps.Has(countq.CapAsync) != isAsync {
			t.Errorf("%s %s: CapAsync=%v but AsyncSession=%v", info.Kinds, info.Name, info.Caps.Has(countq.CapAsync), isAsync)
		}
		sess.Close()
		closeIfCloser(st)
	}
	for _, name := range []string{"sim-counter", "sim-queue"} {
		kind := countq.KindCounter
		if name == "sim-queue" {
			kind = countq.KindQueue
		}
		info, ok := countq.LookupStructure(name, kind)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if !info.Caps.Has(countq.CapAsync) {
			t.Errorf("%s does not declare CapAsync", name)
		}
	}
	// The name "mutex" is registered on both sides; the kind disambiguates.
	if _, ok := countq.LookupStructure("mutex", countq.KindCounter); !ok {
		t.Error("mutex counter not found")
	}
	if _, ok := countq.LookupStructure("mutex", countq.KindQueue); !ok {
		t.Error("mutex queue not found")
	}
}
