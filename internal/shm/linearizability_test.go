package shm

import (
	"testing"

	"repro/countq"
)

// recordSpec records spans over a fresh structure built from spec, one
// session per goroutine, and returns them with the structure's drained
// remainder.
func recordSpec(t *testing.T, spec string, goroutines, opsPerG int) ([]Span, []int64) {
	t.Helper()
	st, err := countq.NewStructure(spec, countq.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := RecordSpans(st, goroutines, opsPerG)
	if err != nil {
		t.Fatal(err)
	}
	return spans, countq.DrainCounts(st)
}

// spanValues returns the span values followed by extra.
func spanValues(spans []Span, extra []int64) []int64 {
	vals := make([]int64, 0, len(spans)+len(extra))
	for _, s := range spans {
		vals = append(vals, s.Value)
	}
	return append(vals, extra...)
}

func TestCheckLinearizableAccepts(t *testing.T) {
	spans := []Span{
		{Start: 1, End: 2, Value: 1},
		{Start: 3, End: 4, Value: 2},
		{Start: 3, End: 5, Value: 3}, // concurrent with the previous: fine
	}
	if err := CheckLinearizable(spans); err != nil {
		t.Error(err)
	}
}

func TestCheckLinearizableRejects(t *testing.T) {
	spans := []Span{
		{Start: 1, End: 2, Value: 5}, // completed with value 5...
		{Start: 3, End: 4, Value: 1}, // ...then a later op returned 1
	}
	if err := CheckLinearizable(spans); err == nil {
		t.Error("real-time inversion accepted")
	}
}

func TestAtomicCounterLinearizable(t *testing.T) {
	spans, _ := recordSpec(t, "atomic", 8, 500)
	if err := CheckLinearizable(spans); err != nil {
		t.Errorf("atomic counter: %v", err)
	}
}

func TestMutexCounterLinearizable(t *testing.T) {
	spans, _ := recordSpec(t, "mutex", 8, 500)
	if err := CheckLinearizable(spans); err != nil {
		t.Errorf("mutex counter: %v", err)
	}
}

func TestCombiningCounterLinearizable(t *testing.T) {
	// Flat combining applies batched operations inside one combiner
	// critical section; each response is handed out after its increment
	// took effect, so real-time order is preserved.
	spans, _ := recordSpec(t, "combining?pending=64", 8, 300)
	if err := CheckLinearizable(spans); err != nil {
		t.Errorf("combining counter: %v", err)
	}
}

func TestNetworkCounterQuiescentButMaybeNotLinearizable(t *testing.T) {
	// Counting networks guarantee quiescent consistency, not
	// linearizability: a token overtaken inside the network can return a
	// smaller count after a larger one completed. The validity
	// (permutation) property must hold regardless; linearizability is
	// reported but not required.
	spans, drained := recordSpec(t, "network?width=8", 8, 500)
	if err := ValidateCounts(spanValues(spans, drained)); err != nil {
		t.Fatalf("network counter validity: %v", err)
	}
	if err := CheckLinearizable(spans); err != nil {
		t.Logf("expected behavior (quiescent consistency only): %v", err)
	} else {
		t.Log("no linearizability violation observed in this run (the property is not guaranteed either way)")
	}
}

func TestDiffractingCounterValiditySpans(t *testing.T) {
	spans, drained := recordSpec(t, "diffracting?leaves=8&spin=16", 8, 300)
	if err := ValidateCounts(spanValues(spans, drained)); err != nil {
		t.Fatalf("diffracting validity: %v", err)
	}
}
