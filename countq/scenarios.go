package countq

import (
	"fmt"
	"math"
	"time"
)

// The canonical scenario library. Each scenario is a registry-v2 entry:
// declared params, unknown keys rejected, self-documenting via
// `countq scenarios -v`. They exist because a flat closed-loop average is
// exactly the measurement that hides the counting-versus-queuing gap:
// quiescently consistent counters look fine on means while ramps, spikes
// and mix shifts expose the tail, timeline and fairness pathologies the
// paper's per-operation lower bound predicts.
func init() {
	RegisterScenario(ScenarioInfo{
		Name:    "steady",
		Summary: "warmup then one steady measured phase at the base shape",
		Params: []ParamInfo{
			{Name: "warmup", Default: "0.1", Doc: "fraction of the budget spent warming up (0 skips the warmup phase)"},
		},
		Phases: func(base Workload, o Options) ([]Phase, error) {
			frac := o.Float64("warmup", 0.1)
			if err := o.Err(); err != nil {
				return nil, err
			}
			if !(frac >= 0 && frac <= 0.9) {
				return nil, fmt.Errorf("warmup fraction %v outside [0, 0.9]", frac)
			}
			if frac == 0 {
				phases := []Phase{basePhase(base, "measure")}
				return assignBudgets(base, phases, []float64{1})
			}
			phases := []Phase{basePhase(base, "warmup"), basePhase(base, "measure")}
			phases[0].Warmup = true
			return assignBudgets(base, phases, []float64{frac, 1 - frac})
		},
	})

	RegisterScenario(ScenarioInfo{
		Name:    "ramp",
		Summary: "goroutine ramp: contention doubles 1 → gmax across equal-budget phases",
		Params: []ParamInfo{
			{Name: "gmax", Default: "0", Doc: "contention ceiling (0 = the base workload's goroutine count)"},
		},
		Phases: func(base Workload, o Options) ([]Phase, error) {
			gmax := o.Int("gmax", 0)
			if err := o.Err(); err != nil {
				return nil, err
			}
			if gmax == 0 {
				gmax = base.Goroutines
			}
			if gmax < 1 {
				return nil, fmt.Errorf("gmax %d must be ≥ 1", gmax)
			}
			var phases []Phase
			var weights []float64
			for g := 1; ; {
				p := basePhase(base, fmt.Sprintf("g=%d", g))
				p.Goroutines = g
				phases = append(phases, p)
				weights = append(weights, 1)
				if g == gmax {
					break
				}
				if g > gmax/2 {
					g = gmax // the last doubling, capped without overflowing
				} else {
					g *= 2
				}
			}
			return assignBudgets(base, phases, weights)
		},
	})

	RegisterScenario(ScenarioInfo{
		Name:    "spike",
		Summary: "bursty alternation: closed-loop spike phases alternating with uniform calm phases",
		Params: []ParamInfo{
			{Name: "cycles", Default: "3", Doc: "number of spike/calm cycles"},
		},
		Phases: func(base Workload, o Options) ([]Phase, error) {
			cycles := o.Int("cycles", 3)
			if err := o.Err(); err != nil {
				return nil, err
			}
			if cycles < 1 || cycles > maxPhases/2 {
				return nil, fmt.Errorf("cycles %d outside [1, %d]", cycles, maxPhases/2)
			}
			var phases []Phase
			var weights []float64
			for i := 1; i <= cycles; i++ {
				spike := basePhase(base, fmt.Sprintf("spike-%d", i))
				spike.Arrival = Closed
				calm := basePhase(base, fmt.Sprintf("calm-%d", i))
				calm.Arrival = Uniform
				phases = append(phases, spike, calm)
				weights = append(weights, 1, 1)
			}
			return assignBudgets(base, phases, weights)
		},
	})

	RegisterScenario(ScenarioInfo{
		Name:    "mixshift",
		Summary: "operation-mix shift: pure queuing → pure counting in equal steps",
		Params: []ParamInfo{
			{Name: "steps", Default: "5", Doc: "number of mix steps from 0 (all enqueue) to 1 (all count)"},
		},
		Phases: func(base Workload, o Options) ([]Phase, error) {
			steps := o.Int("steps", 5)
			if err := o.Err(); err != nil {
				return nil, err
			}
			if steps < 2 || steps > maxPhases {
				return nil, fmt.Errorf("steps %d outside [2, %d]", steps, maxPhases)
			}
			if base.Counter == "" || base.Queue == "" {
				return nil, fmt.Errorf("mixshift needs both a counter and a queue (got counter %q, queue %q)", base.Counter, base.Queue)
			}
			var phases []Phase
			var weights []float64
			for i := 0; i < steps; i++ {
				mix := float64(i) / float64(steps-1)
				p := basePhase(base, fmt.Sprintf("mix=%.2f", mix))
				p.Mix = mix
				phases = append(phases, p)
				weights = append(weights, 1)
			}
			return assignBudgets(base, phases, weights)
		},
	})

	RegisterScenario(ScenarioInfo{
		Name:    "batched",
		Summary: "batch toggle: single increments, then IncN block grants of the same budget",
		Params: []ParamInfo{
			{Name: "batch", Default: "64", Doc: "block-grant size for the batched phase"},
		},
		Phases: func(base Workload, o Options) ([]Phase, error) {
			batch := o.Int("batch", 64)
			if err := o.Err(); err != nil {
				return nil, err
			}
			if batch < 2 {
				return nil, fmt.Errorf("batch %d must be ≥ 2", batch)
			}
			single := basePhase(base, "single")
			single.Batch = 0
			batched := basePhase(base, fmt.Sprintf("batch=%d", batch))
			batched.Batch = batch
			return assignBudgets(base, []Phase{single, batched}, []float64{1, 1})
		},
	})
}

// maxPhases bounds the phases one scenario may expand to, so a mistyped
// count parameter fails at expansion instead of allocating without bound.
const maxPhases = 1 << 12

// basePhase seeds a phase with the base workload's shape; scenarios
// override fields and assignBudgets divides the budget.
func basePhase(base Workload, name string) Phase {
	return Phase{
		Name:          name,
		Goroutines:    base.Goroutines,
		Mix:           base.Mix,
		Batch:         base.Batch,
		Inflight:      base.Inflight,
		LatencySample: base.LatencySample,
		Arrival:       base.Arrival,
	}
}

// assignBudgets divides the base workload's budget across phases in
// proportion to weights. An ops budget is split exactly (largest-remainder,
// every phase ≥ 1 op); a duration budget is split proportionally with a
// 1ns floor. The base must carry enough budget to give every phase a
// share — a 5-op budget cannot run a 6-phase scenario and says so.
func assignBudgets(base Workload, phases []Phase, weights []float64) ([]Phase, error) {
	if len(phases) != len(weights) {
		return nil, fmt.Errorf("%d phases but %d weights", len(phases), len(weights))
	}
	var total float64
	for _, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("phase weight %v is not a positive finite number", w)
		}
		total += w
	}
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("phase weights overflow (sum %v)", total)
	}
	if base.Duration > 0 {
		for i := range phases {
			d := time.Duration(share(float64(base.Duration), weights[i], total))
			if d < 1 {
				d = 1
			}
			phases[i].Duration, phases[i].Ops = d, 0
		}
		return phases, nil
	}
	if base.Ops < len(phases) {
		return nil, fmt.Errorf("ops budget %d cannot cover %d phases", base.Ops, len(phases))
	}
	ops := splitOps(base.Ops, weights, total)
	for i := range phases {
		phases[i].Ops, phases[i].Duration = ops[i], 0
	}
	return phases, nil
}

// share is budget's proportional part for weight w of a finite weight
// sum wsum. Weights near the float64 ceiling overflow budget·w, so those
// divide first; ordinary weights keep the multiply-first rounding every
// recorded split was made with.
func share(budget, w, wsum float64) float64 {
	if x := budget * w; !math.IsInf(x, 0) {
		return x / wsum
	}
	return budget * (w / wsum)
}

// splitOps divides total operations across weights (whose sum is wsum)
// by largest remainder: floors first, then hand the leftover ops to the
// shares with the biggest fractional parts, then guarantee every share at
// least one op by taking from the largest. The caller has already checked
// total ≥ len(weights), every weight positive and finite, and wsum finite.
func splitOps(total int, weights []float64, wsum float64) []int {
	ops := make([]int, len(weights))
	rem := make([]float64, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := share(float64(total), w, wsum)
		ops[i] = int(exact)
		rem[i] = exact - float64(ops[i])
		assigned += ops[i]
	}
	for assigned < total {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		ops[best]++
		rem[best] = -1
		assigned++
	}
	for i := range ops {
		for ops[i] == 0 {
			big := 0
			for j := range ops {
				if ops[j] > ops[big] {
					big = j
				}
			}
			ops[big]--
			ops[i]++
		}
	}
	return ops
}
