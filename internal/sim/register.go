package sim

import (
	"time"

	"repro/countq"
)

// The bridge structures register with the public countq registry, so the
// message-passing protocols run under the same scenario engine,
// validation pass and campaign comparisons as the shared-memory zoo:
//
//	countq compare "sharded,sim-counter?hoplat=1us" -scenario "ramp?gmax=8"
//
// They are native session structures: their coordination round is a
// routed message round trip, not a synchronous call, so sessions with a
// context and (for pipelining) asynchronous completions are the only
// form in which they can be driven.
//
// This file registers the central-protocol bridges; the distributed
// protocols register their own specs (sim-arrow-queue in internal/arrow,
// sim-tree-counter in internal/counting) through BridgeConfig.Proto,
// declaring the same option vocabulary so `countq ls` reads uniformly.
func init() {
	params := []countq.ParamInfo{
		{Name: "hoplat", Default: "1us", Doc: "wall-clock cost of one simulated round (one message hop); 0 = free-running"},
		{Name: "nodes", Default: "9", Doc: "network size (root + leaves; sessions pin round-robin to non-root nodes)"},
		{Name: "topo", Default: "star", Doc: "topology: star (hub contention) | list (diameter) | mesh2d"},
		{Name: "cap", Default: "1", Doc: "per-node per-round send/receive capacity — the paper's c"},
		{Name: "jitter", Default: "0", Doc: "max per-message link delay in rounds (0 = deterministic unit delay)"},
		{Name: "seed", Default: "1", Doc: "seed for the jitter delay model (ignored when jitter=0)"},
		{Name: "pipeline", Default: "1024", Doc: "per-session transport depth: submit-lane capacity, completion buffer and outstanding-operation bound"},
	}
	parse := func(o countq.Options, queue bool) (countq.Structure, error) {
		cfg := BridgeConfig{
			Topo:     o.String("topo", "star"),
			Nodes:    o.Int("nodes", 0),
			HopLat:   o.Duration("hoplat", time.Microsecond),
			Capacity: o.Int("cap", 0),
			Pipeline: o.Int("pipeline", 0),
			Queue:    queue,
		}
		seed := o.Int("seed", 1)
		if jitter := o.Int("jitter", 0); jitter > 0 {
			cfg.Delay = JitterDelay{Seed: int64(seed), Max: jitter}
		}
		if err := o.Err(); err != nil {
			return nil, err
		}
		return NewBridge(cfg)
	}
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "sim-counter",
		Summary:      "central counting over the simulated message-passing network (requests route to the root, grants route back; hop latency and root capacity are the coordination cost)",
		Kinds:        countq.KindCounter,
		Linearizable: true,
		Params:       params,
		Caps:         countq.CapBatch | countq.CapAsync,
		New: func(o countq.Options) (countq.Structure, error) {
			return parse(o, false)
		},
	})
	countq.RegisterStructure(countq.StructureInfo{
		Name:         "sim-queue",
		Summary:      "central queuing over the simulated message-passing network (the root remembers the tail and hands each request its predecessor)",
		Kinds:        countq.KindQueue,
		Linearizable: true,
		Params:       params,
		Caps:         countq.CapAsync,
		New: func(o countq.Options) (countq.Structure, error) {
			return parse(o, true)
		},
	})
}
