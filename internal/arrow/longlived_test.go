package arrow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// request is one long-lived queuing operation: node issues at round.
type request struct{ node, round int }

// script turns requests into enqueue ops whose ids are their indices, so
// a granted predecessor names the op ahead.
func script(reqs []request) []sim.ScriptOp {
	ops := make([]sim.ScriptOp, len(reqs))
	for i, r := range reqs {
		ops[i] = sim.ScriptOp{Node: r.node, Round: r.round, Op: countq.Op{Kind: countq.OpEnqueue, ID: int64(i)}}
	}
	return ops
}

// runLongLived runs the scripted arrow protocol (queue tail at the tree
// root) and checks the order and its quiescent-point consistency.
func runLongLived(t *testing.T, cfg sim.Config, tr *tree.Tree, reqs []request) *sim.ScriptResult {
	t.Helper()
	ops := script(reqs)
	res, err := sim.RunScript(cfg, tr, NewQueueBridge, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.VerifyRealTimeOrder(ops, res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLongLivedSequentialRequests(t *testing.T) {
	g, tr := pathSetup(t, 8)
	// Three requests far apart in time: strictly sequential behavior.
	res := runLongLived(t, sim.Config{Graph: g}, tr, []request{{7, 0}, {3, 40}, {5, 80}})
	for op, want := range []int64{countq.Head, 0, 1} {
		if res.Values[op] != want {
			t.Errorf("pred(op%d) = %d, want %d", op, res.Values[op], want)
		}
	}
	// Latency of op 0 = dist(7, tail 0) = 7. Op 1 chases to node 7:
	// dist(3,7) = 4. Op 2: dist(5,3) = 2.
	for op, want := range []int{7, 4, 2} {
		if got := res.Rounds[op] - []int{0, 40, 80}[op]; got != want {
			t.Errorf("latency(op%d) = %d, want %d", op, got, want)
		}
	}
}

func TestLongLivedSameNodeRepeats(t *testing.T) {
	g, tr := pathSetup(t, 6)
	res := runLongLived(t, sim.Config{Graph: g}, tr, []request{
		{4, 0},
		{4, 0},  // same node, same round: chains locally
		{4, 10}, // later op from the same node
	})
	if res.Values[1] != 0 {
		t.Errorf("pred(op1) = %d, want 0 (local chaining)", res.Values[1])
	}
	if res.Rounds[1] != 0 {
		t.Errorf("latency(op1) = %d, want 0", res.Rounds[1])
	}
	if res.Values[2] != 1 {
		t.Errorf("pred(op2) = %d, want 1", res.Values[2])
	}
}

// Random trees, random tails and random schedules must always yield one
// valid queue whose order is preserved across quiescent points.
func TestLongLivedPropertyValidOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
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
		for k := 0; k < rng.Intn(25); k++ {
			reqs = append(reqs, request{rng.Intn(n), rng.Intn(30)})
		}
		ops := script(reqs)
		res, err := sim.RunScript(sim.Config{Graph: g}, tr, NewQueueBridge, ops)
		if err != nil {
			return false
		}
		return sim.VerifyRealTimeOrder(ops, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestLongLivedConcurrentBursts(t *testing.T) {
	g := graph.PerfectMAryTree(2, 5)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var reqs []request
	for burst := 0; burst < 5; burst++ {
		for k := 0; k < 6; k++ {
			reqs = append(reqs, request{rng.Intn(g.N()), burst * 9})
		}
	}
	if res := runLongLived(t, sim.Config{Graph: g}, tr, reqs); res.TotalLatency < 0 {
		t.Error("negative total latency")
	}
}

func TestLongLivedValidation(t *testing.T) {
	g, tr := pathSetup(t, 4)
	cfg := sim.Config{Graph: g}
	if _, err := sim.RunScript(cfg, tr, NewQueueBridge, script([]request{{9, 0}})); err == nil {
		t.Error("bad node accepted")
	}
	if _, err := sim.RunScript(cfg, tr, NewQueueBridge, script([]request{{1, -2}})); err == nil {
		t.Error("negative time accepted")
	}
}

func TestLongLivedEmptySchedule(t *testing.T) {
	g, tr := pathSetup(t, 4)
	res := runLongLived(t, sim.Config{Graph: g}, tr, nil)
	if len(res.Values) != 0 || res.Stats.MessagesSent != 0 {
		t.Errorf("empty schedule: values=%v messages=%d", res.Values, res.Stats.MessagesSent)
	}
}

func TestLongLivedMatchesOneShotAtTimeZero(t *testing.T) {
	// With every request at time 0, the scripted long-lived protocol
	// must reproduce the one-shot execution exactly (same total order,
	// same delays).
	g, tr := pathSetup(t, 16)
	nodes := []int{2, 5, 9, 14}
	var reqs []request
	reqVec := make([]bool, 16)
	for _, v := range nodes {
		reqs = append(reqs, request{v, 0})
		reqVec[v] = true
	}
	ll := runLongLived(t, sim.Config{Graph: g}, tr, reqs)
	os, err := New(tr, 0, reqVec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(sim.Config{Graph: g}, os).Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range nodes {
		llPredNode := Head
		if p := ll.Values[i]; p != countq.Head {
			llPredNode = nodes[p]
		}
		if osPred := os.Pred(v); osPred != llPredNode {
			t.Errorf("node %d: one-shot pred %d, long-lived pred node %d", v, osPred, llPredNode)
		}
		if ll.Rounds[i] != os.Delay(v) {
			t.Errorf("node %d: delays differ: %d vs %d", v, ll.Rounds[i], os.Delay(v))
		}
	}
}

func TestLongLivedUnderJitter(t *testing.T) {
	// Asynchronous links (bounded jitter) must not break the total order
	// or real-time consistency.
	g := graph.Mesh(5, 5)
	tr, err := tree.BFSTree(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	var reqs []request
	for k := 0; k < 30; k++ {
		reqs = append(reqs, request{rng.Intn(25), rng.Intn(40)})
	}
	runLongLived(t, sim.Config{Graph: g, Delay: sim.JitterDelay{Seed: 3, Max: 5}}, tr, reqs)
}
