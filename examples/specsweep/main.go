// Spec sweep: the parameterized-spec API end to end. Constructs structures
// from DSN-style specs, sweeps the sharded counter's lease batch size with
// Spec.With, and shows the two session escape hatches — a per-session
// lease (the CapHandle fast path) and block grants (BatchSession) —
// moving the coordination cost the paper's lower bound prices per
// operation.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/countq"

	_ "repro/internal/shm" // register the shared-memory implementations
)

func main() {
	// Every registered structure documents its own tunables.
	fmt.Println("declared tunables:")
	for _, info := range countq.Structures() {
		if !info.Kinds.Has(countq.KindCounter) || info.Caps.Has(countq.CapAsync) {
			continue // the synchronous counters
		}
		for _, p := range info.Params {
			fmt.Printf("  %-12s %-8s default %-12s %s\n", info.Name, p.Name, p.Default, p.Doc)
		}
	}

	// Sweep the sharded counter's lease batch: one global fetch-and-add
	// per `batch` counts, so bigger batches amortize the hot word further.
	base, err := countq.ParseSpec("sharded")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsharded lease-batch sweep (8 goroutines, 200k ops):")
	for _, batch := range []string{"1", "16", "256"} {
		spec := base.With("batch", batch)
		res, err := countq.Run(countq.Workload{
			Counter:    spec.String(),
			Goroutines: 8,
			Ops:        200_000,
			Seed:       1,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Metrics carry the tail, not just the mean: a batch size that
		// wins on ns/op can still lose on p99 when the lease refill stalls.
		fmt.Printf("  %-28s %8.1f ns/op   p50 %6.0f   p99 %6.0f\n",
			spec, res.NsPerOp(), res.Aggregate.CounterLat.P50Ns, res.Aggregate.CounterLat.P99Ns)
	}

	// Sessions, used directly: a session owns a private lease (the
	// uncontended fast path), and IncN grants a whole block of counts for
	// one coordination round.
	ctx := context.Background()
	st, err := countq.NewStructure("sharded?batch=64", countq.KindCounter)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := st.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	a, _ := sess.Inc(ctx)
	b, _ := sess.Inc(ctx)
	first, err := sess.(countq.BatchSession).IncN(ctx, 100)
	if err != nil {
		log.Fatal(err)
	}
	sess.Close() // surrender the unused lease remainder
	fmt.Printf("\nsession counts: %d, %d; IncN(100) granted block [%d,%d]\n", a, b, first, first+99)

	// The queue side of the paper's contrast needs no tunables at all:
	// learning your predecessor is one atomic swap.
	qs, err := countq.NewStructure("swap", countq.KindQueue)
	if err != nil {
		log.Fatal(err)
	}
	qsess, err := qs.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer qsess.Close()
	p1, _ := qsess.Enqueue(ctx, 1)
	p2, _ := qsess.Enqueue(ctx, 2)
	fmt.Printf("swap queue predecessors: %d, %d (Head = %d)\n", p1, p2, countq.Head)
}
