package countq

import (
	"reflect"
	"testing"
	"time"
)

// FuzzParseSpec: every spec ParseSpec accepts renders to a canonical form
// that parses back to the same Spec, and no input panics.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"sharded", "sharded?batch=256", "funnel?width=4&depth=3&spin=8", "swap?",
		"sim-counter?hoplat=1us&topo=star", "a?x=1=2", "a?b?c=1", "a&b?x=",
		"steady?weight=Inf", "", "?x=1", "a?x", "a?x=1&x=2", "a?x=1&",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %q, which does not re-parse: %v", in, s, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("ParseSpec(%q) = %+v, re-parsed from %q as %+v", in, s, s, again)
		}
	})
}

// FuzzExpandScenario expands ';'-composed scenario specs against a fixed
// ops budget and a fixed duration budget: every spec returns or errors —
// never panics or hangs — and an accepted expansion hands every phase a
// positive share, the ops shares summing to the budget exactly.
func FuzzExpandScenario(f *testing.F) {
	const ops = 1000
	const dur = 10 * time.Millisecond
	for _, seed := range []string{
		"steady", "ramp?gmax=8", "spike?cycles=2", "mixshift?steps=3", "batched?batch=16",
		"ramp?gmax=8;spike", "ramp?gmax=4&weight=3;spike?cycles=1&warmup=true;steady?warmup=0",
		"steady?weight=Inf;steady", "steady?weight=NaN;steady",
		"steady?weight=1e308;steady?weight=1e308", "steady?weight=1e-300;steady",
		"ramp?gmax=1&weight=1e306;steady?warmup=0",
		"ramp?gmax=9223372036854775807", "spike?cycles=1000000000", "steady?warmup=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, base := range []Workload{
			{Counter: "c", Queue: "q", Goroutines: 4, Ops: ops},
			{Counter: "c", Queue: "q", Goroutines: 4, Duration: dur},
		} {
			sc, err := ExpandScenario(spec, base)
			if err != nil {
				continue
			}
			sum := 0
			for _, p := range sc.Phases {
				if base.Duration > 0 {
					if p.Duration <= 0 {
						t.Fatalf("%q over %v: phase %q gets duration %v", spec, dur, p.Name, p.Duration)
					}
					continue
				}
				if p.Ops <= 0 {
					t.Fatalf("%q over %d ops: phase %q gets %d ops", spec, ops, p.Name, p.Ops)
				}
				sum += p.Ops
			}
			if base.Duration == 0 && sum != ops {
				t.Fatalf("%q: phase ops sum to %d, want %d", spec, sum, ops)
			}
		}
	})
}
