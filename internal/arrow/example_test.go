package arrow_test

import (
	"fmt"
	"log"

	"repro/countq"
	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// ExampleRunOneShot runs the arrow protocol on a small list: three nodes
// issue queuing operations at time zero and each learns its predecessor.
func ExampleRunOneShot() {
	g := graph.Path(6)
	order := []int{0, 1, 2, 3, 4, 5}
	tr, err := tree.PathTree(order)
	if err != nil {
		log.Fatal(err)
	}
	requests := make([]bool, 6)
	requests[1], requests[3], requests[5] = true, true, true

	res, err := arrow.RunOneShot(g, tr, 0, requests, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("queue order:", res.Order)
	fmt.Println("total delay:", res.TotalDelay)
	// Output:
	// queue order: [1 3 5]
	// total delay: 5
}

// ExampleNewQueueBridge runs the long-lived arrow protocol from a
// schedule of requests spread over time: the first operation waits for
// its queue message to reach the tail at the root, the second chases the
// moved tail back, and both land in one global order.
func ExampleNewQueueBridge() {
	g := graph.Path(4)
	tr, err := tree.PathTree([]int{0, 1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	ops := []sim.ScriptOp{
		{Node: 3, Round: 0, Op: countq.Op{Kind: countq.OpEnqueue, ID: 30}},
		{Node: 1, Round: 20, Op: countq.Op{Kind: countq.OpEnqueue, ID: 10}},
	}
	res, err := sim.RunScript(sim.Config{Graph: g}, tr, arrow.NewQueueBridge, ops)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.VerifyRealTimeOrder(ops, res); err != nil {
		log.Fatal(err)
	}
	for i, op := range ops {
		fmt.Printf("id %d: predecessor %d, granted in round %d\n", op.Op.ID, res.Values[i], res.Rounds[i])
	}
	// Output:
	// id 30: predecessor -1, granted in round 3
	// id 10: predecessor 30, granted in round 22
}
