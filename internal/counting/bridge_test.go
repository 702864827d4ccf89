package counting

import (
	"context"
	"sync"
	"testing"

	"repro/countq"
	"repro/internal/sim"
)

// newTestCounterBridge builds a free-running combining-tree bridge on the
// given topology.
func newTestCounterBridge(t *testing.T, topo string, nodes int, delay sim.DelayModel) *sim.Bridge {
	t.Helper()
	b, err := sim.NewBridge(sim.BridgeConfig{
		Topo:  topo,
		Nodes: nodes,
		Proto: NewCounterBridge,
		Delay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestBridgeCounterCounts drives concurrent sessions through the
// combining-tree bridge and checks the counting correctness condition:
// the granted values are a permutation of 1..N. Exercised on the star
// (every leaf combines at the hub), the mesh (multi-level combining) and
// under jitter (UP/DOWN messages take variable delays; intervals must
// still tile exactly).
func TestBridgeCounterCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		topo  string
		nodes int
		delay sim.DelayModel
	}{
		{"star9", "star", 9, nil},
		{"mesh16", "mesh2d", 16, nil},
		{"star9-jitter3", "star", 9, sim.JitterDelay{Seed: 5, Max: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newTestCounterBridge(t, tc.topo, tc.nodes, tc.delay)
			const workers, perWorker = 4, 32
			values := make([][]int64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				sess, err := b.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(w int, sess countq.Session) {
					defer wg.Done()
					defer sess.Close()
					for i := 0; i < perWorker; i++ {
						v, err := sess.Inc(context.Background())
						if err != nil {
							t.Error(err)
							return
						}
						values[w] = append(values[w], v)
					}
				}(w, sess)
			}
			wg.Wait()
			var all []int64
			for w := 0; w < workers; w++ {
				all = append(all, values[w]...)
			}
			if len(all) != workers*perWorker {
				t.Fatalf("completed %d ops, want %d", len(all), workers*perWorker)
			}
			if err := countq.ValidateCounts(all); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBridgeCounterBlocks checks IncN through the combining tree: block
// grants and single increments together must tile 1..total exactly — the
// interval the root hands out splits correctly through the batch layers.
func TestBridgeCounterBlocks(t *testing.T) {
	b := newTestCounterBridge(t, "star", 9, nil)
	const workers = 4
	values := make([][]int64, workers)
	blocks := make([][]countq.CountRange, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sess, err := b.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		bs := sess.(countq.BatchSession)
		wg.Add(1)
		go func(w int, sess countq.Session, bs countq.BatchSession) {
			defer wg.Done()
			defer sess.Close()
			for i := 0; i < 16; i++ {
				if i%4 == 3 {
					first, err := bs.IncN(context.Background(), 5)
					if err != nil {
						t.Error(err)
						return
					}
					blocks[w] = append(blocks[w], countq.CountRange{First: first, N: 5})
					continue
				}
				v, err := sess.Inc(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				values[w] = append(values[w], v)
			}
		}(w, sess, bs)
	}
	wg.Wait()
	var allValues []int64
	var allBlocks []countq.CountRange
	for w := 0; w < workers; w++ {
		allValues = append(allValues, values[w]...)
		allBlocks = append(allBlocks, blocks[w]...)
	}
	if err := countq.ValidateCountRanges(allValues, allBlocks); err != nil {
		t.Fatal(err)
	}
}

// TestBridgeCounterCombines checks the batching claim behind the
// structure: pipelined bursts from several sessions complete with far
// fewer protocol messages than one message per op-hop, because per-node
// batches merge on the way up and the root grants whole intervals.
func TestBridgeCounterCombines(t *testing.T) {
	b := newTestCounterBridge(t, "star", 9, nil)
	const workers, perWorker = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sess, err := b.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		as := sess.(countq.AsyncSession)
		wg.Add(1)
		go func(sess countq.Session, as countq.AsyncSession) {
			defer wg.Done()
			defer sess.Close()
			for i := 0; i < perWorker; i++ {
				if err := as.Submit(context.Background(), countq.Op{Kind: countq.OpInc, N: 1}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < perWorker; i++ {
				if c := <-as.Completions(); c.Err != nil {
					t.Error(c.Err)
					return
				}
			}
		}(sess, as)
	}
	wg.Wait()
	ops := int64(workers * perWorker)
	_, msgs := b.SimStats()
	// The central protocol pays 2 messages per op on the star (request +
	// grant); combining must beat that under a pipelined burst.
	if msgs >= 2*ops {
		t.Errorf("combining tree sent %d messages for %d ops (central would send %d); batches are not combining", msgs, ops, 2*ops)
	}
}
