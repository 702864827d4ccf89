// Package counting implements distributed counting protocols on the
// synchronous network simulator: an aggregating spanning-tree counter and
// counting networks (bitonic, after Aspnes, Herlihy and Shavit, and
// periodic) embedded on the graph, plus the long-lived combining-tree
// counter.
//
// In distributed counting, a set R of processors issue operations at time
// zero and the counts received must be exactly {1, …, |R|} (Section 2.2 of
// Busch & Tirthapura). The counting delay of an operation is the round in
// which the issuing processor receives its count; experiments compare the
// total delay of these protocols against the paper's lower bounds
// (Theorems 3.5 and 3.6).
//
// The one-shot protocols are sim.Protocols run through Run. The
// combining tree is NewCounterBridge, a sim.BridgeProtocol: sim.RunScript
// drives it from a fixed schedule of operations arriving over time, and
// the sim bridge serves it live as `sim-tree-counter`. The central counter
// baseline is sim.NewCentralCounter.
package counting

import "fmt"

// Message kinds of the routed protocols in this package; the golden traces
// record them, so the values are fixed.
const (
	kindGrant = 2 // A = origin, B = count
	kindUp    = 3 // A = subtree request count, or combined amount
	kindDown  = 4 // A = first rank for the receiving subtree, or interval start (B = width)
	kindToken = 5 // A = origin, B = layer, C = wire
)

// Results is the read-side of a finished counting protocol run.
type Results interface {
	// Count returns the count received by v's operation, or 0 if v did
	// not issue one (counts are 1-based).
	Count(v int) int
	// Delay returns the round in which v received its count, or -1.
	Delay(v int) int
	// Requests reports the request vector the run was configured with.
	Requests() []bool
}

// Validate checks the correctness condition of distributed counting: the
// requests received exactly the counts {1, …, |R|}, and non-requesting nodes
// received none.
func Validate(r Results) error {
	req := r.Requests()
	total := 0
	for _, b := range req {
		if b {
			total++
		}
	}
	seen := make([]bool, total+1)
	for v, b := range req {
		c := r.Count(v)
		switch {
		case !b:
			if c != 0 {
				return fmt.Errorf("counting: non-requester %d received count %d", v, c)
			}
		case c < 1 || c > total:
			return fmt.Errorf("counting: node %d received count %d outside 1..%d", v, c, total)
		case seen[c]:
			return fmt.Errorf("counting: count %d received twice", c)
		default:
			seen[c] = true
			if r.Delay(v) < 0 {
				return fmt.Errorf("counting: node %d has count but no delay", v)
			}
		}
	}
	return nil
}

// TotalDelay sums the delays of all requests — the concurrent delay
// complexity realized on this request set.
func TotalDelay(r Results) int {
	total := 0
	for v, b := range r.Requests() {
		if b {
			total += r.Delay(v)
		}
	}
	return total
}

// MaxDelay returns the largest single-operation delay.
func MaxDelay(r Results) int {
	max := 0
	for v, b := range r.Requests() {
		if b && r.Delay(v) > max {
			max = r.Delay(v)
		}
	}
	return max
}
