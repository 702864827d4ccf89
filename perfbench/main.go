// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points (countq.Run, core experiments,
// the sim bridge, the ring and shm packages), checks the outputs, and
// prints the end-to-end metrics; with -trace 1 it prints the per-layer
// metrics instead and writes the run's spans under .bench_build/traces.
// From the repository root:
//
//	bash perfbench/run.sh --workload bridge-sync --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A run that fails validation or a table digest counts everything it
// attempted as failed and exits with status 1. See README.md for the
// workloads and the layer-to-end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"repro/countq"
	_ "repro/internal/arrow"    // registers sim-arrow-queue
	_ "repro/internal/counting" // registers sim-tree-counter
	_ "repro/internal/shm"      // registers async-funnel and elim
)

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every untraced run prints, in order.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"run_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"count_p50_ns", "ns", "lower"},
	{"count_p99_ns", "ns", "lower"},
	{"queue_p50_ns", "ns", "lower"},
	{"queue_p99_ns", "ns", "lower"},
	{"allocs_per_op", "allocs", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are the metrics every traced run prints, in order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"countq.count_call_ns", "ns", "lower"},
		{"countq.queue_call_ns", "ns", "lower"},
		{"countq.count_samples", "count", "higher"},
		{"countq.queue_samples", "count", "higher"},
		{"countq.runner_self_ns", "ns", "lower"},
		{"countq.floor_ns_per_op", "ns", "lower"},
		{"countq.validate_s", "s", "lower"},
		{"countq.validated_ops", "count", "higher"},
		{"sim.count_rounds_per_op", "rounds/op", "lower"},
		{"sim.queue_rounds_per_op", "rounds/op", "lower"},
		{"sim.count_msgs_per_op", "msgs/op", "lower"},
		{"sim.queue_msgs_per_op", "msgs/op", "lower"},
		{"sim.step_ns", "ns", "lower"},
		{"sim.transport_rtt_ns", "ns", "lower"},
		{"counting.bridge_ns_per_op", "ns", "lower"},
		{"arrow.bridge_ns_per_op", "ns", "lower"},
		{"ring.spsc_ns", "ns", "lower"},
		{"ring.wake_ns", "ns", "lower"},
		{"shm.count_raw_ns", "ns", "lower"},
		{"shm.queue_raw_ns", "ns", "lower"},
	}
	for _, id := range paperIDs {
		defs = append(defs, metricDef{"core." + id + "_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_s", "s", "lower"},
		metricDef{"runtime.sched_p99_us", "us", "lower"},
		metricDef{"perfbench.trace_slowdown", "ratio", "lower"},
	)
}()

// The live workloads' structures, each behind a pass-through registration.
const (
	bridgeNet = "hoplat=0&topo=mesh2d&nodes=16"
)

func init() {
	registerPass("pb-tree-counter", "sim-tree-counter?"+bridgeNet, countq.KindCounter)
	registerPass("pb-arrow-queue", "sim-arrow-queue?"+bridgeNet, countq.KindQueue)
	registerPass("pb-async-funnel", "async-funnel", countq.KindCounter)
	registerPass("pb-elim", "elim", countq.KindQueue)
}

// The workloads. g is 2 throughout: the benchmark host has 2 CPUs, and
// more workers than CPUs would measure the Go scheduler, not the program.
var (
	bridgeSync = liveShape{counter: "pb-tree-counter", queue: "pb-arrow-queue", goroutines: 2, mix: 0.5, ops: 500_000}
	shmPiped   = liveShape{counter: "pb-async-funnel", queue: "pb-elim", goroutines: 2, inflight: 8, mix: 0.5, ops: 1_800_000}
	// faulty is not a benchmark workload: it checks failure accounting.
	faulty = liveShape{counter: "perfbench-faulty", goroutines: 2, mix: 1, ops: 1 << 16}

	workloads = map[string]workload{
		// The tables are few and long, not operations of a kind.
		"paper-tables":  {"paper-tables", runPaperTables, []string{"count_p50_ns", "count_p99_ns", "queue_p50_ns", "queue_p99_ns"}},
		"bridge-sync":   {"bridge-sync", bridgeSync.run, nil},
		"shm-pipelined": {"shm-pipelined", shmPiped.run, nil},
		"faulty":        {"faulty", faulty.run, nil},
	}
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported value, as the trace summary records it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-tables | bridge-sync | shm-pipelined")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs traced and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload paper-tables|bridge-sync|shm-pipelined, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	h := fingerprint()
	hj, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "host %s\n", hj)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *trace)
	budget := time.Duration(*seconds * float64(time.Second))

	var out *outcome
	var err error
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		out, err = traced(w, *seed, budget, h, stdout)
	} else {
		out, err = w.run(*seed, budget, nil)
	}
	res := result{Attempted: out.attempted, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s failed: %v\n", w.name, err)
		res.Failed = res.Attempted
		res.Metrics["failed_frac"] = metricValue{1, "ratio"}
		fmt.Fprintf(stdout, "failed_frac 1 ratio\n")
		printJSON(stdout, res)
		return 1
	}
	values := out.e2e
	if *trace == 1 {
		values = out.layers
	}
	for _, d := range defs {
		if *trace == 0 && slices.Contains(w.unmeasured, d.Name) {
			fmt.Fprintf(stdout, "%-28s %16s %s\n", d.Name, "-", d.Unit)
			continue
		}
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s measured no %s\n", w.name, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		line := fmt.Sprintf("%-28s %16.6g %s", d.Name, v, d.Unit)
		switch d.Name {
		case "count_p50_ns", "count_p99_ns":
			line += fmt.Sprintf("  (samples %d)", out.samples["count"])
		case "queue_p50_ns", "queue_p99_ns":
			line += fmt.Sprintf("  (samples %d)", out.samples["queue"])
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "%-28s %16d ratio\n", "failed_frac", 0)
	res.Correct = true
	printJSON(stdout, res)
	return 0
}

func printJSON(w io.Writer, res result) {
	data, _ := json.Marshal(res) // plain numbers and strings always marshal
	fmt.Fprintln(w, string(data))
}

// traceDir is where traced runs write their spans, under the checkout's
// build directory.
const traceDir = ".bench_build/traces"

// ladderBridge is how long a traced run of another workload runs
// bridge-sync for the layers only it reaches.
const ladderBridge = 3 * time.Second

// traced runs the workload untraced and then traced, each for half the
// budget, fills in the layers the workload does not reach from short runs
// of the others, runs the probes, and writes the spans.
func traced(w workload, seed int64, budget time.Duration, h host, stdout io.Writer) (*outcome, error) {
	base, err := w.run(seed, budget/2, nil)
	if err != nil {
		return base, err
	}
	tr := newTracer()
	rt0 := readRuntime()
	out, err := w.run(seed, budget/2, tr)
	rt1 := readRuntime()
	out.attempted += base.attempted
	if err != nil {
		return out, err
	}
	L := out.layers
	L["runtime.gc_cycles"], L["runtime.gc_pause_s"], L["runtime.sched_p99_us"] = rt1.since(rt0)
	if w.name == "paper-tables" {
		L["perfbench.trace_slowdown"] = out.e2e["run_s"] / base.e2e["run_s"]
	} else {
		L["perfbench.trace_slowdown"] = base.e2e["ops_per_s"] / out.e2e["ops_per_s"]
	}

	// The layers of the other workloads, from short runs of them.
	fill := func(o *outcome) {
		for k, v := range o.layers {
			if _, have := L[k]; !have {
				L[k] = v
			}
		}
	}
	if w.name != "paper-tables" {
		pt, err := runPaperTables(seed, 0, nil)
		out.attempted += pt.attempted
		if err != nil {
			return out, err
		}
		fill(pt)
	}
	bs := out
	if w.name != "bridge-sync" {
		bs, err = bridgeSync.run(seed, ladderBridge, newTracer())
		out.attempted += bs.attempted
		if err != nil {
			return out, err
		}
		fill(bs)
	}
	shape := bridgeSync
	if w.name == "shm-pipelined" {
		shape = shmPiped
	}
	probes := []struct {
		name string
		f    func() (float64, error)
	}{
		{"countq.floor_ns_per_op", func() (float64, error) { return shape.floor(seed) }},
		{"sim.step_ns", stepProbe},
		{"sim.transport_rtt_ns", transportProbe},
		{"ring.spsc_ns", spscProbe},
		{"ring.wake_ns", wakeProbe},
		{"shm.count_raw_ns", func() (float64, error) {
			return shmRawProbe(countq.KindCounter, shmPiped.goroutines, shmPiped.inflight)
		}},
		{"shm.queue_raw_ns", func() (float64, error) {
			return shmRawProbe(countq.KindQueue, shmPiped.goroutines, shmPiped.inflight)
		}},
	}
	for _, p := range probes {
		v, err := p.f()
		if err != nil {
			return out, fmt.Errorf("probe %s: %w", p.name, err)
		}
		L[p.name] = v
	}
	// The protocol-plus-engine share of a bridge round trip.
	L["counting.bridge_ns_per_op"] = bs.layers["countq.count_call_ns"] - L["sim.transport_rtt_ns"]
	L["arrow.bridge_ns_per_op"] = bs.layers["countq.queue_call_ns"] - L["sim.transport_rtt_ns"]

	sum := traceFile{Workload: w.name, Seed: seed, Host: h}
	for _, d := range perLayer {
		sum.Metrics = append(sum.Metrics, metric{d.Name, L[d.Name], d.Unit})
	}
	path, err := tr.write(traceDir, sum)
	if err != nil {
		return out, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace %s\n", path)
	return out, nil
}
