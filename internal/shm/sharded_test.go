package shm

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/countq"
)

// newSharded builds a sharded counter through the registry, as every
// measured path does.
func newSharded(t *testing.T, spec string) countq.Structure {
	t.Helper()
	st, err := countq.NewStructure(spec, countq.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardedCounterDistinctNoGaps is the sharded counter's correctness
// check under -race: counts handed out concurrently through sessions are
// distinct, and together with the drained lease remainders they cover
// 1..max without gaps.
func TestShardedCounterDistinctNoGaps(t *testing.T) {
	for _, batch := range []int{1, 8, 64, 17} {
		spans, drained := recordSpec(t, fmt.Sprintf("sharded?batch=%d", batch), 8, 500)
		if len(spans) != 8*500 {
			t.Fatalf("batch=%d: %d counts handed out", batch, len(spans))
		}
		if err := ValidateCounts(spanValues(spans, drained)); err != nil {
			t.Errorf("batch=%d: %v", batch, err)
		}
	}
}

// TestShardedCounterReconcile checks that surrendered lease remainders are
// reissued — after a session closes, the next refill consumes the pooled
// range before touching the global high-water mark, so a fully-drained
// counter still covers 1..max exactly.
func TestShardedCounterReconcile(t *testing.T) {
	st := newSharded(t, "sharded?batch=64")
	ctx := context.Background()
	var all []int64
	incs := func(n int) {
		sess, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			v, err := sess.Inc(ctx)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, v)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	incs(10)  // Close pools the 54 unused counts of the first lease
	incs(100) // reissues them, then leases one fresh batch
	if err := ValidateCounts(append(append([]int64(nil), all...), countq.DrainCounts(st)...)); err != nil {
		t.Fatal(err)
	}
	// The pooled remainder must be reissued rather than leaked: 110 ops
	// consume the first lease's 64 counts plus one fresh batch, so no
	// count can exceed 128.
	max := int64(0)
	for _, v := range all {
		if v > max {
			max = v
		}
	}
	if max > 128 {
		t.Errorf("high-water mark %d suggests surrendered ranges were not reissued", max)
	}
}

// TestShardedCounterQuiescentNotLinearizable documents the sharded
// counter's consistency level: validity (distinct, gap-free after drain)
// always holds, while linearizability is not guaranteed — sessions hold
// blocks from different eras, exactly like a counting network's output
// wires.
func TestShardedCounterQuiescentNotLinearizable(t *testing.T) {
	spans, drained := recordSpec(t, "sharded?batch=32", 8, 500)
	if err := ValidateCounts(spanValues(spans, drained)); err != nil {
		t.Fatalf("sharded validity: %v", err)
	}
	if err := CheckLinearizable(spans); err != nil {
		t.Logf("expected behavior (quiescent consistency only): %v", err)
	} else {
		t.Log("no linearizability violation observed in this run (the property is not guaranteed either way)")
	}
}

func TestShardedCounterRejectsBadBatch(t *testing.T) {
	if _, err := NewShardedCounter(-3); err == nil {
		t.Error("negative batch accepted")
	}
}

// TestShardedCounterHandles exercises the per-session lease path under
// -race with an op count that is not a multiple of the batch, so every
// session closes on a partial lease: Close surrenders the remainders, and
// handed ∪ drained must tile 1..max exactly.
func TestShardedCounterHandles(t *testing.T) {
	const goroutines, opsPerG = 8, 501 // odd count forces partial leases
	spans, drained := recordSpec(t, "sharded?batch=32", goroutines, opsPerG)
	if len(spans) != goroutines*opsPerG {
		t.Fatalf("%d counts handed out", len(spans))
	}
	if err := ValidateCounts(spanValues(spans, drained)); err != nil {
		t.Errorf("sessions: %v", err)
	}
}

// TestShardedCounterHandlesMixed runs lease-path sessions, IncN batchers
// and sessions interleaving both concurrently: the allocation paths share
// one high-water mark and must still jointly tile 1..max.
func TestShardedCounterHandlesMixed(t *testing.T) {
	st := newSharded(t, "sharded?batch=16")
	ctx := context.Background()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		singles []int64
		blocks  []countq.CountRange
	)
	for gi := 0; gi < 9; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			sess, err := st.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			bs := sess.(countq.BatchSession)
			var mine []int64
			var myBlocks []countq.CountRange
			for i := 0; i < 400; i++ {
				// gi%3: 0 leases only, 1 alternates, 2 grants blocks only.
				if gi%3 == 2 || (gi%3 == 1 && i%2 == 1) {
					first, err := bs.IncN(ctx, 10)
					if err != nil {
						t.Error(err)
						return
					}
					myBlocks = append(myBlocks, countq.CountRange{First: first, N: 10})
					continue
				}
				v, err := sess.Inc(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, v)
			}
			if err := sess.Close(); err != nil {
				t.Error(err)
			}
			mu.Lock()
			singles = append(singles, mine...)
			blocks = append(blocks, myBlocks...)
			mu.Unlock()
		}(gi)
	}
	wg.Wait()
	if err := countq.ValidateCountRanges(append(singles, countq.DrainCounts(st)...), blocks); err != nil {
		t.Errorf("mixed allocation paths: %v", err)
	}
}

func TestShardedCounterIncN(t *testing.T) {
	sess, err := newSharded(t, "sharded?batch=8").NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bs := sess.(countq.BatchSession)
	ctx := context.Background()
	if first, err := bs.IncN(ctx, 5); err != nil || first != 1 {
		t.Errorf("first block starts at %d, %v; want 1", first, err)
	}
	if second, err := bs.IncN(ctx, 3); err != nil || second != 6 {
		t.Errorf("second block starts at %d, %v; want 6", second, err)
	}
	if _, err := bs.IncN(ctx, 0); err == nil {
		t.Error("IncN(0) accepted")
	}
}

func TestFunnelCounterValidates(t *testing.T) {
	for _, cfg := range []struct{ width, depth, spin int }{
		{1, 1, 4}, {2, 2, 16}, {4, 3, 8}, {0, 0, 0},
	} {
		c, err := NewFunnelCounter(cfg.width, cfg.depth, cfg.spin)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]int64, 8)
		var wg sync.WaitGroup
		for gi := 0; gi < 8; gi++ {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				vals := make([]int64, 300)
				for i := range vals {
					vals[i] = c.Inc()
				}
				results[gi] = vals
			}(gi)
		}
		wg.Wait()
		var all []int64
		for _, vs := range results {
			all = append(all, vs...)
		}
		if err := ValidateCounts(all); err != nil {
			t.Errorf("funnel %+v: %v", cfg, err)
		}
	}
	if _, err := NewFunnelCounter(-1, 0, 0); err == nil {
		t.Error("negative width accepted")
	}
}

// TestFunnelCounterLinearizable: a batch's fetch-and-add happens after
// every member has started, so the funnel — unlike the counting network —
// preserves real-time order.
func TestFunnelCounterLinearizable(t *testing.T) {
	spans, _ := recordSpec(t, "funnel?width=2&depth=2&spin=16", 8, 300)
	if err := CheckLinearizable(spans); err != nil {
		t.Errorf("funnel counter: %v", err)
	}
}
