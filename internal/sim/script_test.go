package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/countq"
	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

func inc(node, round int, n int64) sim.ScriptOp {
	return sim.ScriptOp{Node: node, Round: round, Op: countq.Op{Kind: countq.OpInc, N: n}}
}

func enq(node, round int, id int64) sim.ScriptOp {
	return sim.ScriptOp{Node: node, Round: round, Op: countq.Op{Kind: countq.OpEnqueue, ID: id}}
}

// enqueueAll issues one enqueue per node at round 0, with the node as id.
func enqueueAll(n int) []sim.ScriptOp {
	ops := make([]sim.ScriptOp, n)
	for v := range ops {
		ops[v] = enq(v, 0, int64(v))
	}
	return ops
}

// runValid runs a script and fails the test unless it validates.
func runValid(t *testing.T, cfg sim.Config, tr *tree.Tree, mk sim.ProtoMaker, ops []sim.ScriptOp) *sim.ScriptResult {
	t.Helper()
	res, err := sim.RunScript(cfg, tr, mk, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.VerifyRealTimeOrder(ops, res); err != nil {
		t.Fatal(err)
	}
	return res
}

// An op issued at the root is served there, in its issue round, without a
// message: the root's serve path, not a route to itself.
func TestRunScriptRootOp(t *testing.T) {
	g := graph.Star(5)
	tr := mustBFS(t, g)
	root := tr.Root()
	cases := []struct {
		name string
		mk   sim.ProtoMaker
		ops  []sim.ScriptOp
		want []int64
	}{
		{"counter", sim.NewCentralCounter, []sim.ScriptOp{inc(root, 0, 1), inc(3, 2, 1)}, []int64{1, 2}},
		{"queue", sim.NewCentralQueue, []sim.ScriptOp{enq(root, 0, 7), enq(3, 2, 8)}, []int64{countq.Head, 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := runValid(t, sim.Config{Graph: g}, tr, c.mk, c.ops)
			if !reflect.DeepEqual(res.Values, c.want) {
				t.Errorf("values = %v, want %v", res.Values, c.want)
			}
			// The root op completes in round 0; the leaf op pays one hop
			// in and one hop out after its issue round.
			if want := []int{0, 4}; !reflect.DeepEqual(res.Rounds, want) {
				t.Errorf("grant rounds = %v, want %v", res.Rounds, want)
			}
			if res.Stats.MessagesSent != 2 {
				t.Errorf("messages = %d, want 2 (only the leaf op routes)", res.Stats.MessagesSent)
			}
		})
	}
}

// recorder logs every protocol callback, granting each op as it is issued.
type recorder struct {
	grants sim.Grants
	log    *[]string
}

func (r *recorder) Start(env *sim.Env, node int) {
	if node == 0 {
		*r.log = append(*r.log, "start")
	}
	if node == 0 && env.N() > 1 {
		env.Send(0, 1, sim.Message{Kind: 1})
	}
}

func (r *recorder) Issue(env *sim.Env, node, token int, op countq.Op) {
	*r.log = append(*r.log, fmt.Sprintf("r%d issue n%d op%d", env.Round(), node, token))
	r.grants.Grant(token, int64(token))
}

func (r *recorder) Deliver(env *sim.Env, node int, m sim.Message) {
	*r.log = append(*r.log, fmt.Sprintf("r%d deliver n%d", env.Round(), node))
}

func (r *recorder) Tick(env *sim.Env, node int) {
	*r.log = append(*r.log, fmt.Sprintf("r%d tick n%d", env.Round(), node))
}

// Ops due in a round are issued in its tick phase — after the round's
// deliveries, before the protocol's own Tick — in (node, index) order.
func TestRunScriptIssueSchedule(t *testing.T) {
	g := graph.Path(2)
	var log []string
	mk := func(_ *graph.Graph, _ *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
		return &recorder{grants: grants, log: &log}, nil
	}
	ops := []sim.ScriptOp{inc(1, 1, 1), inc(0, 1, 1), inc(1, 0, 1), inc(1, 1, 1)}
	res, err := sim.RunScript(sim.Config{Graph: g}, mustBFS(t, g), mk, ops)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"start", "r0 tick n0",
		"r0 issue n1 op2", "r0 tick n1",
		"r1 deliver n1",
		"r1 issue n0 op1", "r1 tick n0",
		"r1 issue n1 op0", "r1 issue n1 op3", "r1 tick n1",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("callback order:\n got %q\nwant %q", log, want)
	}
	if want := []int{1, 1, 0, 1}; !reflect.DeepEqual(res.Rounds, want) {
		t.Errorf("grant rounds = %v, want %v", res.Rounds, want)
	}
	if res.TotalLatency != 0 {
		t.Errorf("total latency = %d, want 0", res.TotalLatency)
	}
}

// silent never grants anything.
type silent struct{}

func (silent) Start(*sim.Env, int)                 {}
func (silent) Issue(*sim.Env, int, int, countq.Op) {}
func (silent) Deliver(*sim.Env, int, sim.Message)  {}
func silentMaker(*graph.Graph, *tree.Tree, sim.Grants) (sim.BridgeProtocol, error) {
	return silent{}, nil
}

func TestRunScriptRejects(t *testing.T) {
	g := graph.Path(4)
	tr := mustBFS(t, g)
	cases := []struct {
		name string
		cfg  sim.Config
		tr   *tree.Tree
		mk   sim.ProtoMaker
		ops  []sim.ScriptOp
		want string
	}{
		{"node", sim.Config{Graph: g}, tr, sim.NewCentralCounter, []sim.ScriptOp{inc(4, 0, 1)}, "out of range"},
		{"round", sim.Config{Graph: g}, tr, sim.NewCentralCounter, []sim.ScriptOp{inc(1, -1, 1)}, "negative"},
		{"block", sim.Config{Graph: g}, tr, sim.NewCentralCounter, []sim.ScriptOp{inc(1, 0, 0)}, "block size"},
		{"id", sim.Config{Graph: g}, tr, sim.NewCentralQueue, []sim.ScriptOp{enq(1, 0, -3)}, "negative"},
		{"no graph", sim.Config{}, tr, sim.NewCentralCounter, nil, "needs a graph"},
		{"tree size", sim.Config{Graph: graph.Path(5)}, tr, sim.NewCentralCounter, nil, "spanning tree"},
		{"ungranted", sim.Config{Graph: g}, tr, silentMaker, []sim.ScriptOp{inc(2, 3, 1)}, "never granted"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := sim.RunScript(c.cfg, c.tr, c.mk, c.ops)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

func TestVerifyRealTimeOrderRejects(t *testing.T) {
	ops := []sim.ScriptOp{inc(1, 0, 1), inc(2, 10, 1)}
	cases := []struct {
		name   string
		ops    []sim.ScriptOp
		values []int64
		rounds []int
	}{
		// Op 1 is issued after op 0 completed, yet counts before it.
		{"quiescent", ops, []int64{2, 1}, []int{3, 12}},
		{"gap", ops, []int64{1, 3}, []int{3, 12}},
		{"chain", []sim.ScriptOp{enq(1, 0, 5), enq(2, 0, 6)}, []int64{countq.Head, countq.Head}, []int{1, 1}},
		{"mixed", []sim.ScriptOp{inc(1, 0, 1), enq(2, 0, 6)}, []int64{1, countq.Head}, []int{1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := &sim.ScriptResult{Values: c.values, Rounds: c.rounds}
			if err := sim.VerifyRealTimeOrder(c.ops, res); err == nil {
				t.Error("invalid run accepted")
			}
		})
	}
}

func TestCentralQueueOrder(t *testing.T) {
	n := 8
	g := graph.Star(n)
	res := runValid(t, sim.Config{Graph: g}, mustBFS(t, g), sim.NewCentralQueue, enqueueAll(n))
	if res.Values[0] != countq.Head {
		t.Errorf("hub pred = %d, want Head", res.Values[0])
	}
	if res.Stats.MessagesSent == 0 {
		t.Error("no messages")
	}
	if res.TotalLatency <= 0 {
		t.Error("no delay")
	}
}

func TestCentralQueueValidation(t *testing.T) {
	g := graph.Path(4)
	tr, err := tree.PathTree([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunScript(sim.Config{Graph: g}, tr, sim.NewCentralQueue, []sim.ScriptOp{enq(4, 0, 0)}); err == nil {
		t.Error("op at a node outside the network accepted")
	}
	// No requests: empty order is valid.
	res := runValid(t, sim.Config{Graph: g}, tr, sim.NewCentralQueue, nil)
	if res.TotalLatency != 0 {
		t.Error("phantom delay")
	}
}

func TestCentralQueuePropertyOrderValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		b := graph.NewBuilder("rt", n)
		for v := 1; v < n; v++ {
			b.MustAddEdge(v, rng.Intn(v))
		}
		g := b.Build()
		tr, err := tree.BFSTree(g, 0)
		if err != nil {
			return false
		}
		var ops []sim.ScriptOp
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				ops = append(ops, enq(v, 0, int64(v)))
			}
		}
		res, err := sim.RunScript(sim.Config{Graph: g}, tr, sim.NewCentralQueue, ops)
		if err != nil {
			return false
		}
		return sim.VerifyRealTimeOrder(ops, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCentralQueueStarQuadratic(t *testing.T) {
	n := 33
	g := graph.Star(n)
	res := runValid(t, sim.Config{Graph: g}, mustBFS(t, g), sim.NewCentralQueue, enqueueAll(n))
	k := n - 1
	if res.TotalLatency < k*k/2 {
		t.Errorf("star queue total = %d, want ≥ %d (serialization)", res.TotalLatency, k*k/2)
	}
}

// FuzzRunScript runs one random schedule through all four routed
// protocols — the central counter and queue, the combining tree with
// random block sizes, and arrow — on a random connected graph under a
// random capacity and link jitter. Every run must tile its counts
// (countq.ValidateCountRanges) or form one queue (countq.ValidateOrder),
// and preserve the order across quiescent points.
func FuzzRunScript(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(20), uint8(10), uint8(0), uint8(0))
	f.Add(int64(2), uint8(30), uint8(47), uint8(30), uint8(3), uint8(1))
	f.Add(int64(3), uint8(1), uint8(12), uint8(0), uint8(0), uint8(2))
	f.Add(int64(4), uint8(15), uint8(40), uint8(5), uint8(4), uint8(0))
	f.Add(int64(5), uint8(24), uint8(0), uint8(9), uint8(2), uint8(2))
	f.Add(int64(6), uint8(12), uint8(33), uint8(39), uint8(4), uint8(1))
	f.Add(int64(7), uint8(3), uint8(45), uint8(2), uint8(2), uint8(0))
	f.Add(int64(8), uint8(29), uint8(25), uint8(20), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, size, nops, horizon, jitter, capacity uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%30
		b := graph.NewBuilder("fuzz", n)
		for v := 1; v < n; v++ {
			b.MustAddEdge(v, rng.Intn(v))
		}
		for e := 0; e < n/3; e++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				_ = b.AddEdge(u, v) // a duplicate is fine to drop
			}
		}
		g := b.Build()
		tr, err := tree.BFSTree(g, rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Graph: g, Capacity: 1 + int(capacity)%3}
		if max := int(jitter) % 5; max > 1 {
			cfg.Delay = sim.JitterDelay{Seed: seed, Max: max}
		}
		k := int(nops) % 48
		counts := make([]sim.ScriptOp, k)
		queue := make([]sim.ScriptOp, k)
		for i := range counts {
			node, round := rng.Intn(n), rng.Intn(1+int(horizon)%40)
			counts[i] = inc(node, round, int64(1+rng.Intn(9)))
			queue[i] = enq(node, round, int64(i))
		}
		for _, run := range []struct {
			name string
			mk   sim.ProtoMaker
			ops  []sim.ScriptOp
		}{
			{"central-counter", sim.NewCentralCounter, counts},
			{"central-queue", sim.NewCentralQueue, queue},
			{"tree-counter", counting.NewCounterBridge, counts},
			{"arrow", arrow.NewQueueBridge, queue},
		} {
			res, err := sim.RunScript(cfg, tr, run.mk, run.ops)
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			if err := validateScript(run.ops, res); err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			if err := sim.VerifyRealTimeOrder(run.ops, res); err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
		}
	})
}

// validateScript checks a run's counts or queue order directly against
// the countq validators.
func validateScript(ops []sim.ScriptOp, res *sim.ScriptResult) error {
	var singles, ids, preds []int64
	var blocks []countq.CountRange
	for i, o := range ops {
		switch {
		case o.Op.Kind == countq.OpEnqueue:
			ids = append(ids, o.Op.ID)
			preds = append(preds, res.Values[i])
		case o.Op.N == 1:
			singles = append(singles, res.Values[i])
		default:
			blocks = append(blocks, countq.CountRange{First: res.Values[i], N: o.Op.N})
		}
	}
	if err := countq.ValidateCountRanges(singles, blocks); err != nil {
		return err
	}
	return countq.ValidateOrder(ids, preds)
}
