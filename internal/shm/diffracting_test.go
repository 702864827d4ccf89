package shm

import (
	"runtime"
	"sync"
	"testing"

	"repro/countq"
)

func TestDiffractingSequential(t *testing.T) {
	for _, leaves := range []int{1, 2, 4, 8} {
		d, err := NewDiffractingCounter(leaves, 2)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for i := 0; i < 5*leaves+3; i++ {
			got = append(got, d.Inc())
		}
		if err := ValidateCounts(got); err != nil {
			t.Errorf("leaves=%d: %v", leaves, err)
		}
	}
}

func TestDiffractingRejectsBadWidth(t *testing.T) {
	for _, leaves := range []int{3, 12, -2} {
		if _, err := NewDiffractingCounter(leaves, 0); err == nil {
			t.Errorf("leaf count %d accepted", leaves)
		}
	}
}

// TestDiffractingDefaultLeaves pins the constructor default: like the
// sharded counter's shard array, the tree sizes itself from GOMAXPROCS —
// rounded up to the power of two the balancer tree needs. (The registry
// shim still rejects an explicit leaves=0 spec; 0 is the constructor's
// "use the default" sentinel, not a spec value.)
func TestDiffractingDefaultLeaves(t *testing.T) {
	d, err := NewDiffractingCounter(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	for want < runtime.GOMAXPROCS(0) {
		want <<= 1
	}
	if d.Width() != want {
		t.Errorf("default leaves = %d, want %d (GOMAXPROCS=%d rounded up to a power of two)",
			d.Width(), want, runtime.GOMAXPROCS(0))
	}
}

func TestDiffractingConcurrent(t *testing.T) {
	const goroutines, opsPerG = 8, 300
	for _, leaves := range []int{2, 8} {
		d, err := NewDiffractingCounter(leaves, 32)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]int64, goroutines)
		var wg sync.WaitGroup
		for gi := 0; gi < goroutines; gi++ {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				vals := make([]int64, opsPerG)
				for i := range vals {
					vals[i] = d.Inc()
				}
				results[gi] = vals
			}(gi)
		}
		wg.Wait()
		var all []int64
		for _, vs := range results {
			all = append(all, vs...)
		}
		if err := ValidateCounts(all); err != nil {
			t.Errorf("leaves=%d: %v", leaves, err)
		}
	}
}

// TestDiffractingMeasured runs the tree through the validated workload
// driver, one session per worker.
func TestDiffractingMeasured(t *testing.T) {
	m, err := countq.Run(countq.Workload{Counter: "diffracting?leaves=4&spin=16", Goroutines: 4, Ops: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate.CounterOps != 800 {
		t.Errorf("ops = %d", m.Aggregate.CounterOps)
	}
}

func TestCLHLockMutualExclusion(t *testing.T) {
	l := NewCLHLock()
	const goroutines, opsPerG = 8, 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				h := l.Lock()
				counter++
				l.Unlock(h)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*opsPerG {
		t.Errorf("counter = %d, want %d (lost updates ⇒ broken mutual exclusion)", counter, goroutines*opsPerG)
	}
}

func TestMCSLockMutualExclusion(t *testing.T) {
	l := NewMCSLock()
	const goroutines, opsPerG = 8, 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				h := l.Lock()
				counter++
				l.Unlock(h)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*opsPerG {
		t.Errorf("counter = %d, want %d", counter, goroutines*opsPerG)
	}
}

func TestLocksSequentialReuse(t *testing.T) {
	clh := NewCLHLock()
	for i := 0; i < 100; i++ {
		h := clh.Lock()
		clh.Unlock(h)
	}
	mcs := NewMCSLock()
	for i := 0; i < 100; i++ {
		h := mcs.Lock()
		mcs.Unlock(h)
	}
}
