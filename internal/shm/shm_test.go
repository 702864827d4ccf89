package shm

import (
	"sync"
	"testing"
)

func counters(t *testing.T) map[string]Counter {
	t.Helper()
	nc, err := NewNetworkCounter(8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Counter{
		"atomic":    NewAtomicCounter(),
		"mutex":     NewMutexCounter(),
		"combining": NewCombiningCounter(64),
		"network":   nc,
	}
}

func TestCountersSequential(t *testing.T) {
	for name, c := range counters(t) {
		var got []int64
		for i := 0; i < 100; i++ {
			got = append(got, c.Inc())
		}
		if err := ValidateCounts(got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCountersConcurrent(t *testing.T) {
	const goroutines, opsPerG = 8, 200
	for name, c := range counters(t) {
		results := make([][]int64, goroutines)
		var wg sync.WaitGroup
		for gi := 0; gi < goroutines; gi++ {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				vals := make([]int64, opsPerG)
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
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestNetworkCounterWidths(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		nc, err := NewNetworkCounter(w)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for i := 0; i < 3*w+5; i++ {
			got = append(got, nc.Inc())
		}
		if err := ValidateCounts(got); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
	if _, err := NewNetworkCounter(6); err == nil {
		t.Error("non-power width accepted")
	}
}

func queuers() map[string]Queuer {
	return map[string]Queuer{
		"swap":  NewSwapQueue(),
		"mutex": NewMutexQueue(),
		"list":  NewListQueue(),
	}
}

func TestQueuersSequential(t *testing.T) {
	for name, q := range queuers() {
		var ids, preds []int64
		for i := int64(0); i < 50; i++ {
			ids = append(ids, i)
			preds = append(preds, q.Enqueue(i))
		}
		if err := ValidateOrder(ids, preds); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Sequential enqueues must chain in order.
		if preds[0] != Head || preds[7] != 6 {
			t.Errorf("%s: sequential preds wrong: %v", name, preds[:8])
		}
	}
}

func TestQueuersConcurrent(t *testing.T) {
	const goroutines, opsPerG = 8, 200
	for name, q := range queuers() {
		ids := make([][]int64, goroutines)
		preds := make([][]int64, goroutines)
		var wg sync.WaitGroup
		for gi := 0; gi < goroutines; gi++ {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				for i := 0; i < opsPerG; i++ {
					id := int64(gi*opsPerG + i)
					ids[gi] = append(ids[gi], id)
					preds[gi] = append(preds[gi], q.Enqueue(id))
				}
			}(gi)
		}
		wg.Wait()
		var allIDs, allPreds []int64
		for gi := range ids {
			allIDs = append(allIDs, ids[gi]...)
			allPreds = append(allPreds, preds[gi]...)
		}
		if len(allIDs) != goroutines*opsPerG {
			t.Errorf("%s: ops = %d", name, len(allIDs))
		}
		if err := ValidateOrder(allIDs, allPreds); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestValidateCountsRejects(t *testing.T) {
	if err := ValidateCounts([]int64{1, 2, 2}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := ValidateCounts([]int64{0, 1, 2}); err == nil {
		t.Error("zero accepted")
	}
	if err := ValidateCounts([]int64{1, 2, 4}); err == nil {
		t.Error("gap accepted")
	}
	if err := ValidateCounts(nil); err != nil {
		t.Error("empty rejected")
	}
}

func TestValidateOrderRejects(t *testing.T) {
	if err := ValidateOrder([]int64{0, 1}, []int64{Head, Head}); err == nil {
		t.Error("double head accepted")
	}
	if err := ValidateOrder([]int64{0, 1}, []int64{Head}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Cycle: 0←1, 1←0 with no head.
	if err := ValidateOrder([]int64{0, 1}, []int64{1, 0}); err == nil {
		t.Error("cycle accepted")
	}
	if err := ValidateOrder([]int64{0, 1, 2}, []int64{Head, 0, 1}); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
}
