package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/countq"
	"repro/internal/core"
)

// outcome is what one measured workload run yields: how much it attempted
// and the metrics it measured. In a traced run layers holds the per-layer
// metrics the workload itself exposes.
type outcome struct {
	attempted int64
	e2e       map[string]float64
	samples   map[string]int64 // latency sample counts, for the report
	layers    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, samples: map[string]int64{}, layers: map[string]float64{}}
}

// workload is one named benchmark workload. run measures it for about
// budget; a non-nil tracer records spans and per-layer metrics. On error
// the outcome still says how much was attempted, and all of it counts as
// failed.
type workload struct {
	name string
	run  func(seed int64, budget time.Duration, tr *tracer) (*outcome, error)
	// unmeasured are the end-to-end metrics the workload has no
	// operations for.
	unmeasured []string
}

// --- paper-tables ----------------------------------------------------------

// paperIDs are the deterministic paper tables. E11 is left out: it times
// goroutines on the host, so its table is not reproducible.
var paperIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E12", "E13", "E14", "E15", "E16"}

// paperPass is one regeneration of every table.
type paperPass struct {
	setup, wall time.Duration
	exp         map[string]time.Duration
	digest      map[string]string
	allocs      uint64
	peakMB      float64
}

// onePass looks up the experiments and warms them at quick sizes (the
// set-up), then regenerates every table at full size and digests it.
func onePass(seed int64, tr *tracer) (paperPass, error) {
	p := paperPass{exp: map[string]time.Duration{}, digest: map[string]string{}}
	heap := startHeap()
	defer heap.stop()
	t0 := time.Now()
	specs := make([]*core.Spec, len(paperIDs))
	for i, id := range paperIDs {
		if specs[i] = core.Lookup(id); specs[i] == nil {
			return p, fmt.Errorf("experiment %s is not registered", id)
		}
		if _, err := specs[i].Run(core.Config{Quick: true, Seed: seed}); err != nil {
			return p, fmt.Errorf("%s (quick): %w", id, err)
		}
	}
	setupEnd := time.Now()
	type call struct {
		name       string
		start, end time.Time
	}
	calls := make([]call, 0, len(specs))
	a0 := allocs()
	for i, s := range specs {
		c0 := time.Now()
		tb, err := s.Run(core.Config{Seed: seed})
		c1 := time.Now()
		if err != nil {
			return p, fmt.Errorf("%s: %w", paperIDs[i], err)
		}
		sum := sha256.Sum256([]byte(tb.Render()))
		p.exp[paperIDs[i]] = c1.Sub(c0)
		p.digest[paperIDs[i]] = hex.EncodeToString(sum[:])
		calls = append(calls, call{"core." + paperIDs[i], c0, c1})
	}
	p.allocs = allocs() - a0
	end := time.Now()
	p.setup, p.wall = setupEnd.Sub(t0), end.Sub(t0)
	p.peakMB = heap.stop()
	if tr != nil {
		root := tr.add(0, "perfbench.pass", t0, end)
		tr.add(root, "setup", t0, setupEnd)
		for _, c := range calls {
			tr.add(root, c.name, c.start, c.end)
		}
	}
	return p, nil
}

// minPasses lets every run compare two passes' tables byte for byte.
const minPasses = 2

func runPaperTables(seed int64, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var first map[string]string
	var passes []paperPass
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < budget {
		// Start each pass from a collected heap, so one pass's garbage
		// is not another's GC time.
		runtime.GC()
		out.attempted += int64(len(paperIDs))
		p, err := onePass(seed, tr)
		if err != nil {
			return out, err
		}
		for _, id := range paperIDs {
			if want, ok := pinnedDigests[id]; ok && seed == pinnedSeed && p.digest[id] != want {
				return out, fmt.Errorf("%s: table digest %s, pinned %s for seed %d", id, p.digest[id], want, pinnedSeed)
			}
			if first != nil && p.digest[id] != first[id] {
				return out, fmt.Errorf("%s: pass %d rendered a different table than pass 1", id, len(passes)+1)
			}
		}
		first = p.digest
		passes = append(passes, p)
	}
	var opsPerS, runS, setupS, allocsPer, peak []float64
	for _, p := range passes {
		busy := time.Duration(0)
		for _, d := range p.exp {
			busy += d
		}
		opsPerS = append(opsPerS, float64(len(paperIDs))/busy.Seconds())
		runS = append(runS, p.wall.Seconds())
		setupS = append(setupS, p.setup.Seconds())
		allocsPer = append(allocsPer, float64(p.allocs)/float64(len(paperIDs)))
		peak = append(peak, p.peakMB)
	}
	out.e2e["ops_per_s"] = midMean(opsPerS)
	out.e2e["run_s"] = midMean(runS)
	out.e2e["setup_s"] = midMean(setupS)
	out.e2e["allocs_per_op"] = midMean(allocsPer)
	out.e2e["peak_heap_mb"] = midMean(peak)
	for _, id := range paperIDs {
		var ts []float64
		for _, p := range passes {
			ts = append(ts, p.exp[id].Seconds())
		}
		out.layers["core."+id+"_s"] = midMean(ts)
	}
	return out, nil
}

// --- live workloads --------------------------------------------------------

// liveShape is a countq.Run workload: one counter and one queue, both
// named by their pass-through registrations, under a closed loop. ops is
// the operation budget of one countq.Run, warmup included, sized to about
// one measured second on the host the benchmark was defined on. The
// budget is fixed rather than the time, so run_s, peak_heap_mb and the
// validation layer price a fixed amount of work and fall when the program
// gets faster.
type liveShape struct {
	counter, queue string
	goroutines     int
	inflight       int
	mix            float64
	ops            int
}

// A run of budget seconds makes budget/subRunTarget countq.Run calls (at
// least minSubRuns) and reports each metric's interquartile mean over
// them, so one slow start or GC cannot move a metric.
const (
	subRunTarget = time.Second
	minSubRuns   = 3
)

// liveScenario is countq's own steady scenario: a warmup of its default
// fraction of the budget, then the measured phase.
const liveScenario = "steady"

// subRun is one countq.Run of a live shape, seen from outside.
type subRun struct {
	wall, setup, validate time.Duration
	m                     *countq.Metrics
	measure               countq.PhaseMetrics
	allOps, allCount      int
	allocs                uint64
	peakMB                float64
	col                   *collector
}

func (s liveShape) once(seed int64, tr *tracer) (*subRun, error) {
	col := collect(tr)
	heap := startHeap()
	a0 := allocs()
	t0 := time.Now()
	m, err := countq.Run(countq.Workload{
		Counter:    s.counter,
		Queue:      s.queue,
		Scenario:   liveScenario,
		Goroutines: s.goroutines,
		Inflight:   s.inflight,
		Mix:        s.mix,
		Ops:        s.ops,
		Seed:       seed,
	})
	end := time.Now()
	r := &subRun{wall: end.Sub(t0), allocs: allocs() - a0, peakMB: heap.stop(), m: m, col: col}
	if err != nil {
		return r, err
	}
	warm, measure := m.Phases[0], m.Phases[len(m.Phases)-1]
	r.measure = measure
	built := col.builtAt
	r.setup = built.Sub(t0) + time.Duration(measure.StartNs)
	measureEnd := built.Add(time.Duration(measure.StartNs) + measure.Elapsed)
	r.validate = end.Sub(measureEnd)
	for _, p := range m.Phases {
		r.allOps += p.Ops
		r.allCount += p.CounterOps
	}
	if tr != nil {
		root := tr.add(0, "perfbench.run", t0, end)
		setup := tr.add(root, "countq.setup", t0, t0.Add(r.setup))
		tr.add(setup, "countq.construct", t0, built)
		ws := built.Add(time.Duration(warm.StartNs))
		wid := tr.add(setup, "countq.phase.warmup", ws, ws.Add(warm.Elapsed))
		mid := tr.add(root, "countq.phase.measure", measureEnd.Add(-measure.Elapsed), measureEnd)
		tr.add(root, "countq.validate", measureEnd, end)
		tr.addOps(col.spans, []uint64{wid, mid}, root)
	}
	return r, nil
}

func (s liveShape) run(seed int64, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	n := int(budget / subRunTarget)
	if n < minSubRuns {
		n = minSubRuns
	}
	var runs []*subRun
	for i := 0; i < n; i++ {
		// Collect the previous run's validation garbage outside the
		// measurement.
		runtime.GC()
		r, err := s.once(seed+int64(i), tr)
		if err != nil {
			// A failed run counts its whole budget as attempted.
			out.attempted += int64(s.ops)
			return out, err
		}
		out.attempted += int64(r.allOps)
		runs = append(runs, r)
	}
	pick := func(f func(r *subRun) float64) float64 {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = f(r)
		}
		return midMean(vals)
	}
	lat := func(c bool, q func(*countq.LatencyStats) float64) float64 {
		return pick(func(r *subRun) float64 {
			if c {
				return q(r.m.Aggregate.CounterLat)
			}
			return q(r.m.Aggregate.QueueLat)
		})
	}
	p50 := func(l *countq.LatencyStats) float64 { return l.P50Ns }
	p99 := func(l *countq.LatencyStats) float64 { return l.P99Ns }
	out.e2e["ops_per_s"] = pick(func(r *subRun) float64 { return r.measure.OpsPerSec() })
	out.e2e["run_s"] = pick(func(r *subRun) float64 { return r.wall.Seconds() })
	out.e2e["setup_s"] = pick(func(r *subRun) float64 { return r.setup.Seconds() })
	out.e2e["count_p50_ns"] = lat(true, p50)
	out.e2e["count_p99_ns"] = lat(true, p99)
	out.e2e["queue_p50_ns"] = lat(false, p50)
	out.e2e["queue_p99_ns"] = lat(false, p99)
	out.e2e["allocs_per_op"] = pick(func(r *subRun) float64 { return float64(r.allocs) / float64(r.allOps) })
	out.e2e["peak_heap_mb"] = pick(func(r *subRun) float64 { return r.peakMB })
	for _, r := range runs {
		out.samples["count"] += r.m.Aggregate.CounterLat.Samples
		out.samples["queue"] += r.m.Aggregate.QueueLat.Samples
	}
	if tr == nil {
		return out, nil
	}

	var calls [2]callStats
	var rounds, msgs [2]int64
	var kindOps [2]int64
	sim := false
	for _, r := range runs {
		for k := range calls {
			calls[k].n += r.col.calls[k].n
			calls[k].ns += r.col.calls[k].ns
		}
		for k, kind := range []countq.Kind{countq.KindCounter, countq.KindQueue} {
			if rd, ms, ok := r.col.simStats(kind); ok {
				rounds[k] += rd
				msgs[k] += ms
				sim = true
			}
		}
		kindOps[0] += int64(r.allCount)
		kindOps[1] += int64(r.allOps - r.allCount)
	}
	countCall, queueCall := calls[countq.OpInc].mean(), calls[countq.OpEnqueue].mean()
	out.layers["countq.count_call_ns"] = countCall
	out.layers["countq.queue_call_ns"] = queueCall
	out.layers["countq.count_samples"] = float64(calls[countq.OpInc].n)
	out.layers["countq.queue_samples"] = float64(calls[countq.OpEnqueue].n)
	out.layers["countq.runner_self_ns"] = pick(func(r *subRun) float64 {
		m := r.measure
		perWorker := float64(m.Elapsed.Nanoseconds()) * float64(m.Goroutines) / float64(m.Ops)
		call := (float64(m.CounterOps)*countCall + float64(m.QueueOps)*queueCall) / float64(m.Ops)
		return perWorker - call
	})
	out.layers["countq.validate_s"] = pick(func(r *subRun) float64 { return r.validate.Seconds() })
	out.layers["countq.validated_ops"] = pick(func(r *subRun) float64 { return float64(r.allOps) })
	if sim {
		out.layers["sim.count_rounds_per_op"] = float64(rounds[0]) / float64(kindOps[0])
		out.layers["sim.queue_rounds_per_op"] = float64(rounds[1]) / float64(kindOps[1])
		out.layers["sim.count_msgs_per_op"] = float64(msgs[0]) / float64(kindOps[0])
		out.layers["sim.queue_msgs_per_op"] = float64(msgs[1]) / float64(kindOps[1])
	}
	return out, nil
}

// floorOps is the budget of one floor run: a few tenths of a second at
// the shm-pipelined settings, less at the synchronous ones.
const floorOps = 1 << 21

// floor is the runner's own cost at this shape's goroutine and inflight
// settings: a counter-only countq.Run against the null counter, in wall
// nanoseconds per operation per worker.
func (s liveShape) floor(seed int64) (float64, error) {
	null := liveShape{counter: "perfbench-null", goroutines: s.goroutines, inflight: s.inflight, mix: 1, ops: floorOps}
	vals := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		runtime.GC()
		r, err := null.once(seed, nil)
		if err != nil {
			return 0, err
		}
		m := r.measure
		vals = append(vals, float64(m.Elapsed.Nanoseconds())*float64(m.Goroutines)/float64(m.Ops))
	}
	return median(vals), nil
}
