// Scenario engine walkthrough: phased workloads with first-class metrics.
// A flat closed-loop average is exactly the measurement that hides the
// counting-versus-queuing gap, so the driver runs named scenarios — phase
// sequences that ramp contention, alternate bursts, and shift the op mix —
// and reports latency quantiles, a windowed throughput timeline, and
// per-worker fairness for every phase. This example lists the scenario
// registry, ramps contention over two counters, and watches the mix shift
// from pure queuing to pure counting.
package main

import (
	"fmt"
	"log"

	"repro/countq"

	_ "repro/internal/shm" // register the shared-memory implementations
)

func main() {
	// Scenarios self-register like structures: declared params, unknown
	// keys rejected, the catalogue printed from the registry.
	fmt.Println("registered scenarios:")
	for _, info := range countq.Scenarios() {
		fmt.Printf("  %-10s %s\n", info.Name, info.Summary)
		for _, p := range info.Params {
			fmt.Printf("             %-8s default %-6s %s\n", p.Name, p.Default, p.Doc)
		}
	}

	// The ramp scenario doubles contention 1 → gmax. Tail latency (p99),
	// not the mean, is where the scalable counters give the game away.
	fmt.Println("\nramp 1→4 goroutines, 100k ops, pure counting:")
	for _, spec := range []string{"atomic", "sharded?batch=16"} {
		m, err := countq.Run(countq.Workload{
			Counter:    spec,
			Scenario:   "ramp?gmax=4",
			Goroutines: 4,
			Ops:        100_000,
			Seed:       1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", spec)
		for _, p := range m.Phases {
			l := p.CounterLat
			fmt.Printf("    %-6s %8.1f ns/op   p50 %6.0f   p99 %7.0f   fairness %.2f\n",
				p.Name, p.NsPerOp(), l.P50Ns, l.P99Ns, p.Fairness)
		}
	}

	// The mixshift scenario walks the paper's contrast inside one run:
	// phase 1 is pure queuing (one atomic swap per op), the last phase is
	// pure counting on a quiescently consistent structure.
	fmt.Println("\nmixshift queue→counter (sharded vs swap), 50k ops:")
	m, err := countq.Run(countq.Workload{
		Counter:    "sharded",
		Queue:      "swap",
		Scenario:   "mixshift?steps=3",
		Goroutines: 4,
		Ops:        50_000,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range m.Phases {
		line := fmt.Sprintf("  %-10s %8.1f ns/op", p.Name, p.NsPerOp())
		if l := p.QueueLat; l != nil {
			line += fmt.Sprintf("   queue p99 %6.0f", l.P99Ns)
		}
		if l := p.CounterLat; l != nil {
			line += fmt.Sprintf("   count p99 %6.0f", l.P99Ns)
		}
		fmt.Println(line)
	}

	// The aggregate folds the measured phases: merged histograms and the
	// whole-run throughput timeline (one Window per slot — stalls show up
	// as empty windows instead of disappearing into an average).
	agg := m.Aggregate
	fmt.Printf("\naggregate: %d ops at %.1f ns/op, fairness %.2f, %d timeline windows\n",
		agg.Ops, agg.NsPerOp(), agg.Fairness, len(agg.Timeline))
	fmt.Println("every phase validated together: counts gap-free, predecessors one total order")
}
