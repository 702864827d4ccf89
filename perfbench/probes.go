package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/countq"
	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Probes time one layer each, below the runner. Every probe repeats its
// measurement probeReps times and reports the median.
const probeReps = 3

func repeat(f func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// meshNodes is the network the bridge-sync workload runs on.
const meshNodes = 16

// stepProbe is the engine's cost per round: Begin, then a timed Step loop
// on mesh2d-16 under the echo protocol, which moves one message per
// directed edge every round.
func stepProbe() (float64, error) {
	return repeat(func() (float64, error) {
		g := graph.Mesh(4, 4)
		nw := sim.New(sim.Config{Graph: g, Capacity: g.MaxDegree()}, echo{})
		if err := nw.Begin(); err != nil {
			return 0, err
		}
		const steps = 200000
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			if err := nw.Step(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / steps, nil
	})
}

// transportProbe is the bridge transport's round trip: a bridge on the
// bridge-sync network whose protocol grants at Issue, driven by two
// synchronous sessions on two goroutines, as the workload drives it. It
// reports the mean Inc call time.
func transportProbe() (float64, error) {
	return repeat(func() (float64, error) {
		br, err := sim.NewBridge(sim.BridgeConfig{
			Topo:   "mesh2d",
			Nodes:  meshNodes,
			HopLat: 0,
			Proto: func(_ *graph.Graph, _ *tree.Tree, grants sim.Grants) (sim.BridgeProtocol, error) {
				return &grantAtIssue{grants: grants}, nil
			},
		})
		if err != nil {
			return 0, err
		}
		defer br.Close()
		const perWorker = 100000
		return parallel(2, func(int) (float64, error) {
			sess, err := br.NewSession()
			if err != nil {
				return 0, err
			}
			defer sess.Close()
			ctx := context.Background()
			t0 := time.Now()
			for i := 0; i < perWorker; i++ {
				if _, err := sess.Inc(ctx); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(t0).Nanoseconds()) / perWorker, nil
		})
	})
}

// parallel runs f on n goroutines and returns the mean of their results.
func parallel(n int, f func(worker int) (float64, error)) (float64, error) {
	vals := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	sum := 0.0
	for i := range vals {
		if errs[i] != nil {
			return 0, errs[i]
		}
		sum += vals[i]
	}
	return sum / float64(n), nil
}

// spscProbe is one ring.SPSC handoff between two goroutines: a ping-pong
// over two rings, each round trip being two handoffs.
func spscProbe() (float64, error) {
	return repeat(func() (float64, error) {
		const trips = 200000
		ping, pong := ring.New[int64](64), ring.New[int64](64)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < trips; i++ {
				v := spinPop(ping)
				for !pong.Push(v) {
					runtime.Gosched()
				}
			}
		}()
		t0 := time.Now()
		for i := int64(0); i < trips; i++ {
			for !ping.Push(i) {
				runtime.Gosched()
			}
			if v := spinPop(pong); v != i {
				<-done
				return 0, fmt.Errorf("ring.SPSC handed back %d, want %d", v, i)
			}
		}
		d := time.Since(t0)
		<-done
		return float64(d.Nanoseconds()) / (2 * trips), nil
	})
}

// spinPop pops from r, yielding while it is empty.
func spinPop(r *ring.SPSC[int64]) int64 {
	for spins := 0; ; spins++ {
		if v, ok := r.Pop(); ok {
			return v
		}
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
}

// wakeProbe is one ring.Event park-to-resume: two goroutines take turns
// parking on their own event and waking the other's, so each round trip
// is two Prepare → park → Wake → resume handoffs.
func wakeProbe() (float64, error) {
	return repeat(func() (float64, error) {
		const trips = 50000
		var a, b ring.Event
		a.Init()
		b.Init()
		// turn is the condition each side re-checks between Prepare and
		// blocking, as the Event contract requires.
		var turn atomic.Int32
		wait := func(e *ring.Event, want int32) {
			for {
				e.Prepare()
				if turn.Load() == want {
					e.Unpark()
					return
				}
				<-e.WakeChan()
			}
		}
		pass := func(e *ring.Event, next int32) {
			turn.Store(next)
			e.Wake()
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < trips; i++ {
				wait(&b, 1)
				pass(&a, 0)
			}
		}()
		t0 := time.Now()
		for i := 0; i < trips; i++ {
			pass(&b, 1)
			wait(&a, 0)
		}
		d := time.Since(t0)
		<-done
		return float64(d.Nanoseconds()) / (2 * trips), nil
	})
}

// shmRawProbe drives an async-funnel or elim structure directly, with no
// runner: goroutines workers each keep inflight operations outstanding
// through an AsyncSession. It validates the outcome and reports wall
// nanoseconds per operation per worker.
func shmRawProbe(kind countq.Kind, goroutines, inflight int) (float64, error) {
	return repeat(func() (float64, error) {
		var st countq.Structure
		var err error
		if kind == countq.KindCounter {
			st, err = shm.NewAsyncFunnelCounter(256, 0)
		} else {
			st, err = shm.NewElimQueue(256, 0)
		}
		if err != nil {
			return 0, err
		}
		const perWorker = 200000
		vals := make([][]int64, goroutines)
		ids := make([][]int64, goroutines)
		t0 := time.Now()
		_, err = parallel(goroutines, func(w int) (float64, error) {
			sess, err := st.NewSession()
			if err != nil {
				return 0, err
			}
			defer sess.Close()
			as, ok := sess.(countq.AsyncSession)
			if !ok {
				return 0, fmt.Errorf("%T is not an AsyncSession", sess)
			}
			ctx := context.Background()
			ch := as.Completions()
			vals[w] = make([]int64, 0, perWorker)
			ids[w] = make([]int64, 0, perWorker)
			out, next := 0, 0
			for len(vals[w]) < perWorker {
				for out < inflight && next < perWorker {
					op := countq.Op{Kind: countq.OpInc, N: 1}
					if kind == countq.KindQueue {
						op = countq.Op{Kind: countq.OpEnqueue, ID: int64(w)<<32 | int64(next)}
					}
					if err := as.Submit(ctx, op); err != nil {
						return 0, err
					}
					out++
					next++
				}
				c := <-ch
				if c.Err != nil {
					return 0, c.Err
				}
				out--
				vals[w] = append(vals[w], c.Value)
				ids[w] = append(ids[w], c.Op.ID)
			}
			return 0, nil
		})
		elapsed := time.Since(t0)
		if err != nil {
			return 0, err
		}
		var all, allIDs []int64
		for w := range vals {
			all = append(all, vals[w]...)
			allIDs = append(allIDs, ids[w]...)
		}
		if kind == countq.KindCounter {
			err = countq.ValidateCounts(append(all, countq.DrainCounts(st)...))
		} else {
			err = countq.ValidateOrder(allIDs, all)
		}
		if err != nil {
			return 0, err
		}
		return float64(elapsed.Nanoseconds()) / perWorker, nil
	})
}
