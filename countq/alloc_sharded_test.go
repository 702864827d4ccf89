package countq_test

import (
	"context"
	"testing"

	"repro/countq"
)

// TestShardedSessionZeroAlloc gates the native sharded counter's session
// hot path next to the runner's gates (alloc_test.go): steady-state Inc —
// lease refills included — and IncN block grants allocate nothing.
func TestShardedSessionZeroAlloc(t *testing.T) {
	const runs = 4096
	st, err := countq.NewStructure("sharded?batch=16", countq.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bs := sess.(countq.BatchSession)
	ctx := context.Background()
	for _, g := range []struct {
		name string
		op   func() error
	}{
		{"sharded Inc", func() error { _, err := sess.Inc(ctx); return err }},
		{"sharded IncN", func() error { _, err := bs.IncN(ctx, 16); return err }},
	} {
		if avg := testing.AllocsPerRun(runs, func() {
			if err := g.op(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: %.4f allocs/op in steady state, want 0", g.name, avg)
		}
	}
}
