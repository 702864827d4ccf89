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

func reqAll(n int) []bool {
	r := make([]bool, n)
	for i := range r {
		r[i] = true
	}
	return r
}

func identityPathTree(t *testing.T, n int) *tree.Tree {
	t.Helper()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	tr, err := tree.PathTree(order)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// runCentral runs the central counter with one time-zero op per
// requesting node (in node order) and validates the counts.
func runCentral(g *graph.Graph, tr *tree.Tree, req []bool) (*sim.ScriptResult, error) {
	var ops []sim.ScriptOp
	for v, r := range req {
		if r {
			ops = append(ops, sim.ScriptOp{Node: v, Op: countq.Op{Kind: countq.OpInc, N: 1}})
		}
	}
	res, err := sim.RunScript(sim.Config{Graph: g}, tr, sim.NewCentralCounter, ops)
	if err != nil {
		return nil, err
	}
	return res, sim.VerifyRealTimeOrder(ops, res)
}

func TestCentralAllOnPath(t *testing.T) {
	n := 8
	g := graph.Path(n)
	tr := identityPathTree(t, n)
	res, err := runCentral(g, tr, reqAll(n))
	if err != nil {
		t.Fatal(err)
	}
	// Root (node 0) counts instantly.
	if res.Values[0] != 1 || res.Rounds[0] != 0 {
		t.Errorf("root: count=%d delay=%d", res.Values[0], res.Rounds[0])
	}
	// Node 1's request arrives first (closest) and gets count 2.
	if res.Values[1] != 2 {
		t.Errorf("node 1 count = %d, want 2", res.Values[1])
	}
	if res.TotalLatency <= 0 {
		t.Error("no delay recorded")
	}
}

func TestCentralStarQuadratic(t *testing.T) {
	// On the star with the hub as root, n-1 requests serialize at the
	// hub: total delay = Σ (wait + 2 hops) ≈ n²/2 — the Θ(n²) behavior
	// from the paper's conclusions.
	n := 33
	g := graph.Star(n)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCentral(g, tr, reqAll(n))
	if err != nil {
		t.Fatal(err)
	}
	k := n - 1 // leaf requests
	// The i-th served leaf (1-based) is granted at round i+1... plus the
	// grant leaves the hub one per round: lower bound (k²/2) on total.
	if res.TotalLatency < k*k/2 {
		t.Errorf("star central total = %d, want ≥ %d", res.TotalLatency, k*k/2)
	}
	if res.TotalLatency > 3*k*k {
		t.Errorf("star central total = %d, unexpectedly high", res.TotalLatency)
	}
}

func TestTreeCountAllOnPath(t *testing.T) {
	n := 6
	g := graph.Path(n)
	tr := identityPathTree(t, n)
	tc, err := NewTreeCount(tr, reqAll(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, tc, 1); err != nil {
		t.Fatal(err)
	}
	// DFS-preorder ranks on a rooted path = positions 1..n.
	for v := 0; v < n; v++ {
		if tc.Count(v) != v+1 {
			t.Errorf("count(%d) = %d, want %d", v, tc.Count(v), v+1)
		}
	}
	// Convergecast up the path takes n-1 rounds; the root then knows at
	// round n-1, and node v's block arrives ~v rounds later.
	if tc.Delay(0) != n-1 {
		t.Errorf("root delay = %d, want %d", tc.Delay(0), n-1)
	}
	if tc.Delay(n-1) != 2*(n-1) {
		t.Errorf("far-end delay = %d, want %d", tc.Delay(n-1), 2*(n-1))
	}
}

func TestTreeCountPartialRequests(t *testing.T) {
	g := graph.PerfectMAryTree(2, 4)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := make([]bool, g.N())
	req[3] = true
	req[7] = true
	req[14] = true
	tc, err := NewTreeCount(tr, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, tc, 1); err != nil {
		t.Fatal(err)
	}
	// DFS-preorder: 3 before 7 (3 is 7's ancestor), 7 before 14.
	if tc.Count(3) != 1 || tc.Count(7) != 2 || tc.Count(14) != 3 {
		t.Errorf("counts: %d %d %d", tc.Count(3), tc.Count(7), tc.Count(14))
	}
}

func TestTreeCountSingleNodeGraph(t *testing.T) {
	g := graph.NewBuilder("one", 1).Build()
	tr := tree.MustFromParents(0, []int{0})
	tc, err := NewTreeCount(tr, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Count(0) != 1 || res.TotalDelay != 0 {
		t.Errorf("single node: count=%d total=%d", tc.Count(0), res.TotalDelay)
	}
}

func TestTreeCountNoRequests(t *testing.T) {
	g := graph.Path(5)
	tr := identityPathTree(t, 5)
	tc, err := NewTreeCount(tr, make([]bool, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelay != 0 {
		t.Errorf("empty run total = %d", res.TotalDelay)
	}
	// Convergecast still runs (the request set is unknown a priori) but
	// no rank blocks are sent.
	if res.Stats.MessagesSent != 4 {
		t.Errorf("messages = %d, want 4 up-reports", res.Stats.MessagesSent)
	}
}

func TestCountNetValidSmall(t *testing.T) {
	n := 16
	g := graph.Complete(n)
	tr, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		cn, err := NewCountNet(tr, reqAll(n), w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(g, cn, 1); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

func TestCountNetHostValidation(t *testing.T) {
	tr := identityPathTree(t, 4)
	bad := func(layer, index, global, n int) int { return n + 3 }
	if _, err := NewCountNet(tr, reqAll(4), 4, bad); err == nil {
		t.Error("out-of-range host accepted")
	}
	if _, err := NewCountNet(tr, reqAll(3), 4, nil); err == nil {
		t.Error("short request vector accepted") // tree has 4 nodes
	}
}

func TestValidateRejectsBadResults(t *testing.T) {
	mk := func(counts []int, delays []int, req []bool) Results {
		return fakeResults{counts, delays, req}
	}
	// Count outside range.
	if err := Validate(mk([]int{3, 1}, []int{1, 1}, []bool{true, true})); err == nil {
		t.Error("count 3 of 2 accepted")
	}
	// Duplicate count.
	if err := Validate(mk([]int{1, 1}, []int{1, 1}, []bool{true, true})); err == nil {
		t.Error("duplicate accepted")
	}
	// Non-requester with count.
	if err := Validate(mk([]int{1, 1}, []int{1, 1}, []bool{true, false})); err == nil {
		t.Error("uninvited count accepted")
	}
	// Missing delay.
	if err := Validate(mk([]int{1, 2}, []int{1, -1}, []bool{true, true})); err == nil {
		t.Error("missing delay accepted")
	}
	// Valid.
	if err := Validate(mk([]int{2, 1}, []int{4, 4}, []bool{true, true})); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
}

type fakeResults struct {
	counts, delays []int
	req            []bool
}

func (f fakeResults) Count(v int) int  { return f.counts[v] }
func (f fakeResults) Delay(v int) int  { return f.delays[v] }
func (f fakeResults) Requests() []bool { return f.req }

func TestAllProtocolsValidProperty(t *testing.T) {
	// Property: on random connected graphs with random request sets, all
	// three protocols produce valid counts (the Validate call inside Run).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(24)
		// Random connected graph: random tree plus extra edges.
		b := graph.NewBuilder("randconn", n)
		parent := make([]int, n)
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
			b.MustAddEdge(v, parent[v])
		}
		for e := 0; e < n/2; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = b.AddEdge(u, v) // duplicates fine to ignore
			}
		}
		g := b.Build()
		root := rng.Intn(n)
		tr, err := tree.BFSTree(g, root)
		if err != nil {
			return false
		}
		req := make([]bool, n)
		for i := range req {
			req[i] = rng.Intn(2) == 0
		}
		if _, err := runCentral(g, tr, req); err != nil {
			return false
		}
		tc, err := NewTreeCount(tr, req)
		if err != nil {
			return false
		}
		if _, err := Run(g, tc, 1); err != nil {
			return false
		}
		width := 1 << uint(rng.Intn(4))
		cn, err := NewCountNet(tr, req, width, nil)
		if err != nil {
			return false
		}
		if _, err := Run(g, cn, 1); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTreeCountBeatsCentralOnPath(t *testing.T) {
	// The aggregating counter pipelines; the central counter pays the
	// full route per request. On the list the gap is decisive.
	n := 64
	g := graph.Path(n)
	tr := identityPathTree(t, n)
	cenRes, err := runCentral(g, tr, reqAll(n))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := NewTreeCount(tr, reqAll(n))
	if err != nil {
		t.Fatal(err)
	}
	tcRes, err := Run(g, tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tcRes.TotalDelay >= cenRes.TotalLatency {
		t.Errorf("tree %d not better than central %d", tcRes.TotalDelay, cenRes.TotalLatency)
	}
}
