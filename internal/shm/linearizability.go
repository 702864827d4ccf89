package shm

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/countq"
)

// Span records one counter operation's observation window against a global
// logical clock: the operation started at tick Start, finished at tick End,
// and returned Value.
type Span struct {
	Start, End, Value int64
}

// RecordSpans runs goroutines×opsPerG increments against st, one session
// per goroutine, bracketing each with ticks from a shared logical clock.
// Every session is closed when it returns, so countq.DrainCounts(st) then
// yields the remainder that completes the span values to 1..max.
func RecordSpans(st countq.Structure, goroutines, opsPerG int) ([]Span, error) {
	var clock atomic.Int64
	per := make([][]Span, goroutines)
	errs := make([]error, goroutines)
	ctx := context.Background()
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			sess, err := st.NewSession()
			if err != nil {
				errs[gi] = err
				return
			}
			defer sess.Close()
			out := make([]Span, opsPerG)
			for i := range out {
				s := clock.Add(1)
				v, err := sess.Inc(ctx)
				e := clock.Add(1)
				if err != nil {
					errs[gi] = err
					return
				}
				out[i] = Span{Start: s, End: e, Value: v}
			}
			per[gi] = out
		}(gi)
	}
	wg.Wait()
	var spans []Span
	for gi, s := range per {
		if errs[gi] != nil {
			return nil, errs[gi]
		}
		spans = append(spans, s...)
	}
	return spans, nil
}

// CheckLinearizable verifies the real-time ordering condition for a
// counter: if operation A finished before operation B started, A's value
// must be smaller. Plain fetch-and-increment satisfies this; counting
// networks famously do not (they guarantee only quiescent consistency) —
// the tests demonstrate both.
func CheckLinearizable(spans []Span) error {
	byStart := append([]Span(nil), spans...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
	byEnd := append([]Span(nil), spans...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })
	var maxDone int64 = -1 // largest value among ops completed so far
	k := 0
	for _, b := range byStart {
		for k < len(byEnd) && byEnd[k].End < b.Start {
			if byEnd[k].Value > maxDone {
				maxDone = byEnd[k].Value
			}
			k++
		}
		if maxDone >= b.Value {
			return fmt.Errorf("shm: not linearizable: value %d issued after a completed op returned %d", b.Value, maxDone)
		}
	}
	return nil
}
