// Campaign walkthrough: cross-structure comparison under one scenario.
// The paper's claim is comparative — counting is harder than queuing, and
// scalable counters beat centralized ones only under the right load
// shapes — so the campaign layer runs several structure specs under a
// byte-identical phase sequence (same scenario expansion, same seed, same
// arrival schedule) and reports each structure's metrics plus delta
// ratios against a declared baseline. This example composes a scenario
// with the then-combinator, campaigns four counters over it, prints the
// aggregate deltas, and emits the Markdown export.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/countq"

	_ "repro/internal/shm" // register the shared-memory implementations
)

func main() {
	// Scenarios compose: "ramp?gmax=4;spike?cycles=2" in combinator form.
	// Reserved segment params: weight= splits the budget unevenly and
	// warmup= turns a whole segment into warmup.
	scenario := countq.Compose("ramp?gmax=4").Then("spike?cycles=2&weight=2")

	cmp, err := countq.Campaign{
		Base: countq.Workload{
			Scenario:   scenario.String(),
			Goroutines: 4,
			Ops:        200_000,
			Seed:       1,
		},
		Entries: []countq.Entry{
			{Counter: "atomic"}, // the baseline: hardware fetch-add
			{Counter: "mutex"},
			{Counter: "sharded?batch=256"},
			{Counter: "funnel"},
		},
	}.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Every entry ran the same phases op-for-op; the deltas are ratios
	// against the baseline's same phase (Δ < 1 on ns/op and p99 means
	// faster than atomic, Δ > 1 on throughput means more ops/sec).
	fmt.Printf("campaign over %q, baseline %s\n\n", cmp.Scenario, cmp.Baseline)
	fmt.Printf("%-22s %10s %10s %8s %8s\n", "structure", "ns/op", "p99 ns", "Δp99", "Δtput")
	for _, r := range cmp.Results {
		a := r.Metrics.Aggregate
		mark := ""
		if r.Baseline {
			mark = " (baseline)"
		}
		fmt.Printf("%-22s %10.1f %10.0f %7.2fx %7.2fx%s\n",
			r.Label, a.NsPerOp(), a.CounterLat.P99Ns,
			r.AggregateDelta.P99Ratio, r.AggregateDelta.ThroughputRatio, mark)
	}

	// The exports feed plots and PR comments: MarshalCSV loads straight
	// into a dataframe, MarshalMarkdown renders the per-phase delta table.
	md, err := cmp.MarshalMarkdown()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- Markdown export ---")
	os.Stdout.Write(md)
}
