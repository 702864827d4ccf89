package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/countq"
)

// lastJSON decodes the result line a run printed last.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// A counter that returns a count twice must fail the whole run: every
// attempted operation counted as failed, no metrics, a nonzero exit.
func TestFaultyCounterFailsTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "faulty", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("faulty run exited 0\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "duplicated") {
		t.Errorf("stderr does not name the duplicate count: %s", stderr.String())
	}
	res := lastJSON(t, stdout.String())
	if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
		t.Errorf("result %+v, want correct=false and failed == attempted ≥ 1", res)
	}
	if len(res.Metrics) != 1 || res.Metrics["failed_frac"].Value != 1 {
		t.Errorf("metrics %+v, want only failed_frac = 1", res.Metrics)
	}
}

// Traced sessions must implement exactly the capability interfaces of the
// sessions they wrap, and pass-through structures must forward Drainer
// and io.Closer, or the runner would validate and close differently.
func TestPassThroughForwardsCapabilities(t *testing.T) {
	for _, tc := range []struct {
		spec string
		kind countq.Kind
	}{
		{"async-funnel", countq.KindCounter},
		{"elim", countq.KindQueue},
		{"atomic", countq.KindCounter},
		{"swap", countq.KindQueue},
		{"sim-tree-counter?" + bridgeNet, countq.KindCounter},
		{"sim-arrow-queue?" + bridgeNet, countq.KindQueue},
	} {
		inner, err := countq.NewStructure(tc.spec, tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		p := &passStructure{inner: inner, kind: tc.kind, col: collect(newTracer())}
		raw, err := inner.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		_, rawBatch := raw.(countq.BatchSession)
		_, rawAsync := raw.(countq.AsyncSession)
		w := p.col.wrap(raw)
		_, batch := w.(countq.BatchSession)
		_, async := w.(countq.AsyncSession)
		if batch != rawBatch || async != rawAsync {
			t.Errorf("%s: traced session batch=%v async=%v, the session it wraps %v %v", tc.spec, batch, async, rawBatch, rawAsync)
		}
		if err := w.Close(); err != nil {
			t.Errorf("%s: close: %v", tc.spec, err)
		}
		s, err := p.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("%s: close: %v", tc.spec, err)
		}
		if _, ok := countq.Structure(p).(countq.Drainer); !ok {
			t.Errorf("%s: pass-through structure is not a Drainer", tc.spec)
		}
		p.Drain()
		if err := p.Close(); err != nil {
			t.Errorf("%s: structure close: %v", tc.spec, err)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics the benchmark prints,
// with the same units and directions.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
