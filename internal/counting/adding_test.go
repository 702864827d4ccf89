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

// Distributed addition is the combining tree with block sizes > 1: an
// op adding amount is granted the first count of its block, the
// exclusive prefix sum of the addends served before it plus one.

func TestAdderSingleOp(t *testing.T) {
	g := graph.Path(4)
	tr := identityPathTree(t, 4)
	res := runCombining(t, sim.Config{Graph: g}, tr, []request{{node: 3, amount: 7}})
	if res.Values[0] != 1 {
		t.Errorf("block start = %d, want 1", res.Values[0])
	}
}

func TestAdderSequentialPrefixSums(t *testing.T) {
	g := graph.Path(3)
	tr := identityPathTree(t, 3)
	res := runCombining(t, sim.Config{Graph: g}, tr, []request{
		{node: 0, round: 0, amount: 5},
		{node: 0, round: 10, amount: 3},
		{node: 0, round: 20, amount: 2},
	})
	for op, want := range []int64{1, 6, 9} {
		if res.Values[op] != want {
			t.Errorf("block start(op%d) = %d, want %d", op, res.Values[op], want)
		}
	}
}

func TestAdderRejectsBadAmount(t *testing.T) {
	g := graph.Path(3)
	tr := identityPathTree(t, 3)
	for _, amount := range []int64{0, -4} {
		ops := []sim.ScriptOp{{Node: 0, Op: countq.Op{Kind: countq.OpInc, N: amount}}}
		if _, err := sim.RunScript(sim.Config{Graph: g}, tr, NewCounterBridge, ops); err == nil {
			t.Errorf("amount %d accepted", amount)
		}
	}
}

func TestAdderUnitAmountsMatchCounting(t *testing.T) {
	// With all amounts 1, the adder is a counter: the values are exactly
	// 1..n.
	g := graph.PerfectMAryTree(2, 4)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []request
	for v := 0; v < g.N(); v++ {
		reqs = append(reqs, request{node: v, amount: 1})
	}
	res := runCombining(t, sim.Config{Graph: g}, tr, reqs)
	if err := countq.ValidateCounts(res.Values); err != nil {
		t.Error(err)
	}
}

func TestAdderPropertyPrefixSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		parent := make([]int, n)
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
		}
		tr := tree.MustFromParents(0, parent)
		b := graph.NewBuilder("rt", n)
		for v := 1; v < n; v++ {
			b.MustAddEdge(v, parent[v])
		}
		g := b.Build()
		var reqs []request
		for k := 0; k < rng.Intn(30); k++ {
			reqs = append(reqs, request{node: rng.Intn(n), round: rng.Intn(20), amount: int64(1 + rng.Intn(9))})
		}
		ops := script(reqs)
		res, err := sim.RunScript(sim.Config{Graph: g}, tr, NewCounterBridge, ops)
		if err != nil {
			return false
		}
		return sim.VerifyRealTimeOrder(ops, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidateSumsRejectsCorruption(t *testing.T) {
	g := graph.Path(3)
	tr := identityPathTree(t, 3)
	reqs := []request{{node: 1, amount: 2}, {node: 2, amount: 3}}
	res := runCombining(t, sim.Config{Graph: g}, tr, reqs)
	res.Values[0]++ // corrupt
	if err := sim.VerifyRealTimeOrder(script(reqs), res); err == nil {
		t.Error("corrupted sums accepted")
	}
}
