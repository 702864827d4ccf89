// Command asyncbridge drives the message-passing sim bridge against a
// shared-memory counter in one campaign — the comparison only the session
// API can express: the bridge's coordination round is a routed message
// round trip with real per-hop latency, not a synchronous call, so it has
// no Counter view at all. The campaign puts both under the same goroutine
// ramp and seed, then deepens the bridge's async pipeline to show how
// much of the round-trip cost overlapping recovers — and what the
// corrected latency says it really costs under an open arrival schedule.
//
//	go run ./examples/asyncbridge
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/countq"
	_ "repro/internal/shm" // register the shared-memory zoo
	"repro/internal/sim"
)

func main() {
	// 1. The headline campaign: shared-memory sharded counter vs the
	// bridged central counter, byte-identical ramp phases, shared seed.
	cmp, err := countq.Campaign{
		Base: countq.Workload{Scenario: "ramp?gmax=8", Ops: 40000, Seed: 1},
		Entries: []countq.Entry{
			{Counter: "sharded"},
			{Counter: "sim-counter?hoplat=1us"},
		},
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	md, err := cmp.MarshalMarkdown()
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(md)

	// 2. Pipelining: the same bridge, synchronous vs 8 and 32 operations
	// in flight per worker. The per-entry Inflight override keeps the op
	// budgets equal, so the throughput delta is exactly what overlapping
	// the coordination round buys.
	async, err := countq.Campaign{
		Base: countq.Workload{Ops: 20000, Goroutines: 4, Seed: 1},
		Entries: []countq.Entry{
			{Counter: "sim-counter?hoplat=1us"},
			{Counter: "sim-counter?hoplat=1us", Inflight: 8},
			{Counter: "sim-counter?hoplat=1us", Inflight: 32},
		},
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npipelining the coordination round (same budget, deeper pipelines):")
	for _, r := range async.Results {
		lat := r.Metrics.Aggregate.CounterLat
		corr := r.Metrics.Aggregate.CounterCorr
		line := fmt.Sprintf("  %-36s %8.2f Kops/s   service p99 %8.0f ns",
			r.Label, r.Metrics.Aggregate.OpsPerSec()/1e3, lat.P99Ns)
		if corr != nil {
			line += fmt.Sprintf("   corrected p99 %8.0f ns", corr.P99Ns)
		}
		if !r.Baseline && r.AggregateDelta.ThroughputRatio > 0 {
			line += fmt.Sprintf("   tput %0.2fx", r.AggregateDelta.ThroughputRatio)
		}
		fmt.Println(line)
	}

	// 3. The session API itself: a hand-driven async session against a
	// bridge with a deliberately slow, contended hub — Submit on the
	// arrival schedule, completions as they come.
	st, err := countq.NewStructure("sim-counter?hoplat=2us&nodes=5", countq.KindCounter)
	if err != nil {
		log.Fatal(err)
	}
	defer st.(interface{ Close() error }).Close()
	sess, err := st.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	as := sess.(countq.AsyncSession)
	ctx := context.Background()
	const inflight, total = 4, 16
	outstanding, next := 0, 0
	var got []int64
	for next < total || outstanding > 0 {
		for outstanding < inflight && next < total {
			if err := as.Submit(ctx, countq.Op{Kind: countq.OpInc, N: 1, Token: uint64(next)}); err != nil {
				log.Fatal(err)
			}
			next++
			outstanding++
		}
		c := <-as.Completions()
		if c.Err != nil {
			log.Fatal(c.Err)
		}
		got = append(got, c.Value)
		outstanding--
	}
	if err := countq.ValidateCounts(got); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhand-driven AsyncSession: %d counts over a %d-deep pipeline, gap-free (first 8: %v)\n",
		len(got), inflight, got[:8])
	_ = sim.BridgeConfig{} // the bridge is also constructible directly — see internal/sim
}
