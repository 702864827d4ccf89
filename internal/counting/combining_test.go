package counting

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// request is one long-lived counting operation: node adds amount at round.
type request struct {
	node, round int
	amount      int64
}

// script turns requests into counting ops (amount 0 means a single count).
func script(reqs []request) []sim.ScriptOp {
	ops := make([]sim.ScriptOp, len(reqs))
	for i, r := range reqs {
		n := r.amount
		if n == 0 {
			n = 1
		}
		ops[i] = sim.ScriptOp{Node: r.node, Round: r.round, Op: countq.Op{Kind: countq.OpInc, N: n}}
	}
	return ops
}

// runCombining runs the scripted combining tree and checks that the
// granted blocks tile the counts in an order consistent across quiescent
// points.
func runCombining(t *testing.T, cfg sim.Config, tr *tree.Tree, reqs []request) *sim.ScriptResult {
	t.Helper()
	ops := script(reqs)
	res, err := sim.RunScript(cfg, tr, NewCounterBridge, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.VerifyRealTimeOrder(ops, res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCombiningSingleOpAtRoot(t *testing.T) {
	g := graph.Path(4)
	tr := identityPathTree(t, 4)
	res := runCombining(t, sim.Config{Graph: g}, tr, []request{{node: 0}})
	if res.Values[0] != 1 || res.Rounds[0] != 0 {
		t.Errorf("root op: count=%d latency=%d", res.Values[0], res.Rounds[0])
	}
}

func TestCombiningSingleOpAtLeaf(t *testing.T) {
	g := graph.Path(5)
	tr := identityPathTree(t, 5)
	res := runCombining(t, sim.Config{Graph: g}, tr, []request{{node: 4}})
	// Round trip to the root: 4 up + 4 down.
	if res.Rounds[0] != 8 {
		t.Errorf("leaf latency = %d, want 8", res.Rounds[0])
	}
}

func TestCombiningBurstCombines(t *testing.T) {
	// All ops at one leaf in one round: they travel as ONE message pair.
	g := graph.Path(5)
	tr := identityPathTree(t, 5)
	res := runCombining(t, sim.Config{Graph: g}, tr, []request{{node: 4}, {node: 4}, {node: 4}, {node: 4}})
	// 4 hops up + 4 hops down = 8 messages for all four ops together.
	if res.Stats.MessagesSent != 8 {
		t.Errorf("messages = %d, want 8 (combining)", res.Stats.MessagesSent)
	}
	// Counts arrive in issue order at the leaf.
	for op := 0; op < 4; op++ {
		if res.Values[op] != int64(op+1) {
			t.Errorf("count(op%d) = %d, want %d", op, res.Values[op], op+1)
		}
	}
}

// Random trees, random amounts and random schedules must always yield
// blocks that tile the counts in an order preserved across quiescent
// points.
func TestCombiningPropertyValidCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		b := graph.NewBuilder("rt", n)
		for v := 1; v < n; v++ {
			b.MustAddEdge(v, rng.Intn(v))
		}
		g := b.Build()
		tr, err := tree.BFSTree(g, rng.Intn(n))
		if err != nil {
			return false
		}
		var reqs []request
		for k := 0; k < rng.Intn(40); k++ {
			reqs = append(reqs, request{rng.Intn(n), rng.Intn(25), int64(rng.Intn(4))})
		}
		ops := script(reqs)
		res, err := sim.RunScript(sim.Config{Graph: g}, tr, NewCounterBridge, ops)
		if err != nil {
			return false
		}
		return sim.VerifyRealTimeOrder(ops, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCombiningPipelinesAcrossBatches(t *testing.T) {
	// A second wave issued while the first is in flight must still be
	// served (flush on grant return).
	g := graph.Path(6)
	tr := identityPathTree(t, 6)
	var reqs []request
	for wave := 0; wave < 4; wave++ {
		for k := 0; k < 3; k++ {
			reqs = append(reqs, request{node: 5, round: wave * 2})
		}
	}
	if res := runCombining(t, sim.Config{Graph: g}, tr, reqs); res.TotalLatency <= 0 {
		t.Error("no latency recorded")
	}
}

func TestCombiningMultiNodeAllTimeZero(t *testing.T) {
	g := graph.PerfectMAryTree(2, 5)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []request
	for v := 0; v < g.N(); v++ {
		reqs = append(reqs, request{node: v})
	}
	if res := runCombining(t, sim.Config{Graph: g}, tr, reqs); res.TotalLatency <= 0 {
		t.Error("no latency")
	}
}

func TestCombiningValidation(t *testing.T) {
	g := graph.Path(4)
	tr := identityPathTree(t, 4)
	cfg := sim.Config{Graph: g}
	if _, err := sim.RunScript(cfg, tr, NewCounterBridge, script([]request{{node: 7}})); err == nil {
		t.Error("bad node accepted")
	}
	if _, err := sim.RunScript(cfg, tr, NewCounterBridge, script([]request{{node: 1, round: -1}})); err == nil {
		t.Error("negative time accepted")
	}
}

func TestCombiningUnderJitter(t *testing.T) {
	g := graph.Mesh(4, 4)
	tr, err := tree.BFSTree(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var reqs []request
	for k := 0; k < 25; k++ {
		reqs = append(reqs, request{node: rng.Intn(16), round: rng.Intn(20)})
	}
	runCombining(t, sim.Config{Graph: g, Delay: sim.JitterDelay{Seed: 8, Max: 4}}, tr, reqs)
}
