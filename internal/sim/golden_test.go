package sim_test

// Determinism regression goldens for the round engine. Each seeded run
// records every delivery the protocol observes — round, receiving node,
// message envelope and payload — plus the final Stats and the protocol's
// own results, and the rendered trace is compared byte-for-byte against a
// committed golden file. The goldens were captured from the pre-v2 engine
// (arrivals map + per-round sort.Slice), so they pin the exact delivery
// order the timing-wheel engine must reproduce: same per-link FIFO, same
// global seq tie-breaking, same Stats — including under non-unit delay
// models, where the FIFO clamp interacts with the wheel. The central,
// long-lived arrow and combining goldens run the bridge protocols through
// sim.RunScript, so they pin the same code the bridge serves live.
//
// Regenerate with: go test ./internal/sim -run TestGoldenTraces -update
// (only legitimate after an intentional, reviewed semantics change).

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/countq"
	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// tracer wraps a one-shot Protocol and records every delivery in execution order.
type tracer struct {
	inner sim.Protocol
	buf   *bytes.Buffer
}

func (t *tracer) Start(env *sim.Env, node int) { t.inner.Start(env, node) }

func (t *tracer) Deliver(env *sim.Env, node int, m sim.Message) {
	traceDelivery(t.buf, env, node, m)
	t.inner.Deliver(env, node, m)
}

// scriptTracer wraps a BridgeProtocol and records every delivery in
// execution order, for the protocols run through sim.RunScript.
type scriptTracer struct {
	inner sim.BridgeProtocol
	buf   *bytes.Buffer
}

func (t *scriptTracer) Start(env *sim.Env, node int) { t.inner.Start(env, node) }

func (t *scriptTracer) Issue(env *sim.Env, node, token int, op countq.Op) {
	t.inner.Issue(env, node, token, op)
}

func (t *scriptTracer) Deliver(env *sim.Env, node int, m sim.Message) {
	traceDelivery(t.buf, env, node, m)
	t.inner.Deliver(env, node, m)
}

func (t *scriptTracer) Tick(env *sim.Env, node int) {
	if tk, ok := t.inner.(sim.BridgeTicker); ok {
		tk.Tick(env, node)
	}
}

func traceDelivery(buf *bytes.Buffer, env *sim.Env, node int, m sim.Message) {
	fmt.Fprintf(buf, "r=%d node=%d from=%d to=%d sent=%d kind=%d a=%d b=%d c=%d\n",
		env.Round(), node, m.From, m.To, m.SentAt(), m.Kind, m.A, m.B, m.C)
}

func traceStats(buf *bytes.Buffer, stats sim.Stats) {
	fmt.Fprintf(buf, "stats rounds=%d sent=%d inbox=%d outbox=%d recv=%v\n",
		stats.Rounds, stats.MessagesSent, stats.MaxInboxBacklog, stats.MaxOutboxBacklog, stats.Received)
}

// runScriptTraced runs ops through mk under the tracer and appends the
// final stats plus the per-op result summary rendered by results.
func runScriptTraced(t *testing.T, cfg sim.Config, mk sim.ProtoMaker, ops []sim.ScriptOp, results func(buf *bytes.Buffer, res *sim.ScriptResult)) []byte {
	t.Helper()
	var buf bytes.Buffer
	traced := func(g *graph.Graph, tr *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
		p, err := mk(g, tr, grants)
		return &scriptTracer{inner: p, buf: &buf}, err
	}
	res, err := sim.RunScript(cfg, mustBFS(t, cfg.Graph), traced, ops)
	if err != nil {
		t.Fatal(err)
	}
	traceStats(&buf, res.Stats)
	results(&buf, res)
	return buf.Bytes()
}

// runTraced executes cfg's one-shot protocol under the tracer and
// appends the final stats plus the protocol-specific result summary.
func runTraced(t *testing.T, cfg sim.Config, proto sim.Protocol, results func(buf *bytes.Buffer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	stats, err := sim.New(cfg, &tracer{inner: proto, buf: &buf}).Run()
	if err != nil {
		t.Fatal(err)
	}
	traceStats(&buf, stats)
	results(&buf)
	return buf.Bytes()
}

func allRequests(n int) []bool {
	req := make([]bool, n)
	for i := range req {
		req[i] = true
	}
	return req
}

func mustBFS(t *testing.T, g *graph.Graph) *tree.Tree {
	t.Helper()
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGoldenTraces(t *testing.T) {
	type spec struct {
		name  string
		trace func(t *testing.T) []byte
	}
	star9 := func() *graph.Graph { return graph.Star(9) }
	mesh9 := func() *graph.Graph { return graph.Mesh(3, 3) }
	mesh16 := func() *graph.Graph { return graph.Mesh(4, 4) }

	centralRun := func(t *testing.T, g *graph.Graph, cfg sim.Config) []byte {
		ops := make([]sim.ScriptOp, g.N())
		for v := range ops {
			ops[v] = sim.ScriptOp{Node: v, Op: countq.Op{Kind: countq.OpInc, N: 1}}
		}
		cfg.Graph = g
		cfg.TrackPerNode = true
		return runScriptTraced(t, cfg, sim.NewCentralCounter, ops, func(buf *bytes.Buffer, res *sim.ScriptResult) {
			for v := range ops {
				fmt.Fprintf(buf, "count[%d]=%d delay=%d\n", v, res.Values[v], res.Rounds[v])
			}
		})
	}
	arrowRun := func(t *testing.T, g *graph.Graph, cfg sim.Config) []byte {
		tr := mustBFS(t, g)
		p, err := arrow.New(tr, 0, allRequests(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Graph = g
		cfg.TrackPerNode = true
		return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
			for v := 0; v < g.N(); v++ {
				fmt.Fprintf(buf, "pred[%d]=%d delay=%d\n", v, p.Pred(v), p.Delay(v))
			}
			fmt.Fprintf(buf, "order-ok=%v\n", p.VerifyOrder() == nil)
		})
	}
	treeRun := func(t *testing.T, g *graph.Graph, cfg sim.Config) []byte {
		tr := mustBFS(t, g)
		p, err := counting.NewTreeCount(tr, allRequests(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Graph = g
		cfg.TrackPerNode = true
		return runTraced(t, cfg, p, func(buf *bytes.Buffer) {
			for v := 0; v < g.N(); v++ {
				fmt.Fprintf(buf, "count[%d]=%d delay=%d\n", v, p.Count(v), p.Delay(v))
			}
		})
	}
	staggered := func(n, ops int) []sim.ScriptOp {
		script := make([]sim.ScriptOp, ops)
		for i := range script {
			script[i] = sim.ScriptOp{Node: (i*3 + 1) % n, Round: i / 2, Op: countq.Op{Kind: countq.OpEnqueue, ID: int64(i)}}
		}
		return script
	}

	specs := []spec{
		{"central-star9-unit", func(t *testing.T) []byte {
			return centralRun(t, star9(), sim.Config{})
		}},
		{"central-star9-cap2", func(t *testing.T) []byte {
			return centralRun(t, star9(), sim.Config{Capacity: 2})
		}},
		{"central-star9-jitter4", func(t *testing.T) []byte {
			return centralRun(t, star9(), sim.Config{Delay: sim.JitterDelay{Seed: 7, Max: 4}})
		}},
		{"central-mesh16-weighted", func(t *testing.T) []byte {
			// Per-edge fixed weights: the FIFO clamp must bind when a
			// later message takes a faster edge draw than its predecessor
			// took earlier — here delays differ per edge parity.
			w := sim.EdgeWeightDelay{Weight: func(u, v int) int { return 1 + (u+v)%3 }}
			return centralRun(t, mesh16(), sim.Config{Delay: w})
		}},
		{"arrow-mesh9-unit", func(t *testing.T) []byte {
			return arrowRun(t, mesh9(), sim.Config{})
		}},
		{"arrow-mesh9-jitter3", func(t *testing.T) []byte {
			return arrowRun(t, mesh9(), sim.Config{Delay: sim.JitterDelay{Seed: 11, Max: 3}})
		}},
		{"arrowll-path8-jitter2", func(t *testing.T) []byte {
			ops := staggered(8, 20)
			cfg := sim.Config{Graph: graph.Path(8), TrackPerNode: true, Delay: sim.JitterDelay{Seed: 5, Max: 2}}
			return runScriptTraced(t, cfg, arrow.NewQueueBridge, ops, func(buf *bytes.Buffer, res *sim.ScriptResult) {
				for op := range ops {
					fmt.Fprintf(buf, "pred[%d]=%d done=%d\n", op, res.Values[op], res.Rounds[op])
				}
				fmt.Fprintf(buf, "rt-ok=%v\n", sim.VerifyRealTimeOrder(ops, res) == nil)
			})
		}},
		{"tree-mesh16-unit", func(t *testing.T) []byte {
			return treeRun(t, mesh16(), sim.Config{})
		}},
		{"tree-mesh16-jitter5", func(t *testing.T) []byte {
			return treeRun(t, mesh16(), sim.Config{Delay: sim.JitterDelay{Seed: 3, Max: 5}})
		}},
		{"combining-star9-jitter3", func(t *testing.T) []byte {
			ops := make([]sim.ScriptOp, 24)
			for i := range ops {
				ops[i] = sim.ScriptOp{Node: 1 + (i*5)%8, Round: i / 3, Op: countq.Op{Kind: countq.OpInc, N: 1}}
			}
			cfg := sim.Config{Graph: star9(), TrackPerNode: true, Delay: sim.JitterDelay{Seed: 13, Max: 3}}
			return runScriptTraced(t, cfg, counting.NewCounterBridge, ops, func(buf *bytes.Buffer, res *sim.ScriptResult) {
				for op := range ops {
					fmt.Fprintf(buf, "value[%d]=%d done=%d\n", op, res.Values[op], res.Rounds[op])
				}
			})
		}},
	}

	for _, s := range specs {
		s := s
		t.Run(s.name, func(t *testing.T) {
			got := s.trace(t)
			path := filepath.Join("testdata", "golden", s.name+".trace")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to capture): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace diverged from the committed golden (%d vs %d bytes); the engine is no longer behavior-identical", len(got), len(want))
				// Report the first diverging line for diagnosis.
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Errorf("first divergence at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
						break
					}
				}
			}
		})
	}
}
