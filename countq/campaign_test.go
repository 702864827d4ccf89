package countq

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

// TestCampaignRoundTrip is the campaign analogue of the scenario
// round-trip: several structures through one composed scenario, identical
// phase sequences asserted op-for-op, deltas well-formed, and the whole
// thing holds under -race (CI runs this suite with the race detector on).
func TestCampaignRoundTrip(t *testing.T) {
	registerTestImpls()
	cmp, err := Campaign{
		Base: Workload{
			Scenario:   "ramp?gmax=2;spike?cycles=1",
			Goroutines: 2,
			Ops:        6000,
			Seed:       1,
		},
		Entries: []Entry{{Counter: "test-alpha"}, {Counter: "test-batch"}, {Counter: "test-handle"}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline != "test-alpha" {
		t.Errorf("baseline = %q, want the first entry", cmp.Baseline)
	}
	if len(cmp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(cmp.Results))
	}
	base := cmp.Results[0]
	if !base.Baseline || cmp.Results[1].Baseline {
		t.Error("baseline flag misplaced")
	}
	for _, r := range cmp.Results {
		if r.Metrics.Scenario != "ramp?gmax=2;spike?cycles=1" {
			t.Errorf("%s scenario = %q", r.Label, r.Metrics.Scenario)
		}
		if len(r.Metrics.Phases) != len(base.Metrics.Phases) {
			t.Fatalf("%s ran %d phases, baseline ran %d", r.Label, len(r.Metrics.Phases), len(base.Metrics.Phases))
		}
		total := 0
		for i, p := range r.Metrics.Phases {
			bp := base.Metrics.Phases[i]
			if p.Name != bp.Name {
				t.Errorf("%s phase %d = %q, baseline %q", r.Label, i, p.Name, bp.Name)
			}
			// The identical-phase-sequence guarantee, op for op: every
			// structure ran exactly the same per-phase budget.
			if p.Ops != bp.Ops {
				t.Errorf("%s phase %q did %d ops, baseline did %d", r.Label, p.Name, p.Ops, bp.Ops)
			}
			if p.Goroutines != bp.Goroutines {
				t.Errorf("%s phase %q ran %d goroutines, baseline %d", r.Label, p.Name, p.Goroutines, bp.Goroutines)
			}
			total += p.Ops
		}
		if total != 6000 {
			t.Errorf("%s ran %d ops total, budget was 6000", r.Label, total)
		}
		if len(r.PhaseDeltas) != len(r.Metrics.Phases) {
			t.Errorf("%s has %d phase deltas for %d phases", r.Label, len(r.PhaseDeltas), len(r.Metrics.Phases))
		}
	}
	// Baseline deltas are self-ratios: exactly 1 wherever defined.
	for _, d := range append(append([]Delta(nil), base.PhaseDeltas...), base.AggregateDelta) {
		for what, v := range map[string]float64{
			"ns/op": d.NsPerOpRatio, "tput": d.ThroughputRatio,
			"p50": d.P50Ratio, "p99": d.P99Ratio, "fairness": d.FairnessRatio,
		} {
			if v != 0 && v != 1 {
				t.Errorf("baseline %s delta in phase %q = %v, want 1", what, d.Phase, v)
			}
		}
		if d.NsPerOpRatio != 1 || d.ThroughputRatio != 1 {
			t.Errorf("baseline core deltas in phase %q = %+v, want 1", d.Phase, d)
		}
	}
	// Non-baseline deltas are positive wherever both sides measured.
	for _, r := range cmp.Results[1:] {
		if r.AggregateDelta.NsPerOpRatio <= 0 || r.AggregateDelta.ThroughputRatio <= 0 {
			t.Errorf("%s aggregate deltas not computed: %+v", r.Label, r.AggregateDelta)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	registerTestImpls()
	shape := Workload{Goroutines: 2, Ops: 1000, Seed: 1}
	for _, tc := range []struct {
		name string
		c    Campaign
		want string
	}{
		{"no entries", Campaign{Base: shape}, "no entries"},
		{"base names structures", Campaign{
			Base:    Workload{Counter: "test-alpha", Ops: 1000},
			Entries: []Entry{{Counter: "test-alpha"}},
		}, "come from Entries"},
		{"baseline out of range", Campaign{
			Base: shape, Entries: []Entry{{Counter: "test-alpha"}}, Baseline: 1,
		}, "baseline index"},
		{"empty entry", Campaign{
			Base: shape, Entries: []Entry{{Counter: "test-alpha"}, {}},
		}, "neither a counter nor a queue"},
		{"mixed vs pure mismatch", Campaign{
			Base: shape, Entries: []Entry{{Counter: "test-alpha"}, {Counter: "test-batch", Queue: "test-queue"}},
		}, "kind shape"},
		{"pure vs mixed mismatch", Campaign{
			Base: shape, Entries: []Entry{{Counter: "test-alpha", Queue: "test-queue"}, {Counter: "test-batch"}},
		}, "kind shape"},
		{"duplicate entry", Campaign{
			Base: shape, Entries: []Entry{{Counter: "test-alpha"}, {Counter: "test-alpha"}},
		}, "twice"},
		{"unknown structure", Campaign{
			Base: shape, Entries: []Entry{{Counter: "no-such-counter"}},
		}, "unknown counter"},
		{"bad scenario", Campaign{
			Base:    Workload{Scenario: "no-such-scenario", Ops: 1000},
			Entries: []Entry{{Counter: "test-alpha"}},
		}, "unknown scenario"},
	} {
		_, err := tc.c.Run()
		if err == nil {
			t.Errorf("%s: campaign accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCampaignCrossKind compares a pure counter entry against a pure
// queue entry: both run the identical phase sequence and budget with their
// own operation kind — the paper's counting-versus-queuing question as a
// campaign. Core ratios (ns/op, throughput) are computed; latency ratios,
// which would compare different op kinds, are omitted.
func TestCampaignCrossKind(t *testing.T) {
	registerTestImpls()
	cmp, err := Campaign{
		Base:    Workload{Goroutines: 2, Ops: 2000, Seed: 1},
		Entries: []Entry{{Counter: "test-alpha"}, {Queue: "test-queue"}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(cmp.Results))
	}
	c, q := cmp.Results[0], cmp.Results[1]
	if c.Metrics.Aggregate.Ops != q.Metrics.Aggregate.Ops {
		t.Errorf("cross-kind budgets diverged: counter ran %d ops, queue ran %d", c.Metrics.Aggregate.Ops, q.Metrics.Aggregate.Ops)
	}
	if q.AggregateDelta.NsPerOpRatio <= 0 || q.AggregateDelta.ThroughputRatio <= 0 {
		t.Errorf("cross-kind core deltas not computed: %+v", q.AggregateDelta)
	}
	if q.AggregateDelta.P99Ratio != 0 {
		t.Errorf("cross-kind p99 ratio = %v, want omitted (0): the sides measured different op kinds", q.AggregateDelta.P99Ratio)
	}
}

func TestCampaignMixedEntries(t *testing.T) {
	registerTestImpls()
	// Mixed entries share the queue's schedule too; mixshift requires both
	// kinds and expands once for all entries.
	cmp, err := Campaign{
		Base: Workload{Scenario: "mixshift?steps=3", Goroutines: 2, Ops: 3000, Mix: 0.5, Seed: 1},
		Entries: []Entry{
			{Counter: "test-alpha", Queue: "test-queue"},
			{Counter: "test-batch", Queue: "test-queue"},
		},
		Baseline: 1,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline != "test-batch+test-queue" {
		t.Errorf("baseline label = %q", cmp.Baseline)
	}
	if !cmp.Results[1].Baseline || cmp.Results[0].Baseline {
		t.Error("declared baseline not flagged")
	}
	for _, r := range cmp.Results {
		for i, p := range r.Metrics.Phases {
			if bp := cmp.Results[1].Metrics.Phases[i]; p.Ops != bp.Ops {
				t.Errorf("%s phase %q ops %d != baseline %d", r.Label, p.Name, p.Ops, bp.Ops)
			}
		}
	}
}

func TestComparisonExports(t *testing.T) {
	registerTestImpls()
	cmp, err := Campaign{
		Base:    Workload{Scenario: "steady?warmup=0.25", Goroutines: 2, Ops: 2000, Seed: 1},
		Entries: []Entry{{Counter: "test-alpha"}, {Counter: "test-batch"}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	// CSV: header plus (phases + aggregate) rows per structure, parseable
	// by a real CSV reader with a uniform column count.
	out, err := cmp.MarshalCSV()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	wantRows := 1 + 2*(2+1) // header + 2 structures × (2 phases + aggregate)
	if len(rows) != wantRows {
		t.Errorf("CSV rows = %d, want %d", len(rows), wantRows)
	}
	for i, r := range rows {
		if len(r) != len(csvHeader) {
			t.Errorf("CSV row %d has %d columns, header has %d", i, len(r), len(csvHeader))
		}
	}
	if rows[0][0] != "structure" || rows[1][0] != "test-alpha" {
		t.Errorf("CSV rows misordered: %v / %v", rows[0], rows[1])
	}
	// The warmup phase is flagged in its column.
	if rows[1][1] != "warmup" || rows[1][2] != "true" {
		t.Errorf("warmup row misrendered: %v", rows[1])
	}
	// Markdown: a table with one line per CSV data row plus the caveat
	// footnote (single-core fairness, baseline semantics).
	md, err := cmp.MarshalMarkdown()
	if err != nil {
		t.Fatal(err)
	}
	s := string(md)
	for _, want := range []string{"| structure |", "`test-alpha` (baseline)", "`test-batch`", "**aggregate**", "GOMAXPROCS", "warmup"} {
		if !strings.Contains(s, want) {
			t.Errorf("markdown missing %q in:\n%s", want, s)
		}
	}
	// JSON: the Comparison marshals as-is with the delta records inline.
	data, err := json.Marshal(cmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"phase_deltas"`, `"aggregate_delta"`, `"baseline"`, `"p99_ns"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("comparison JSON missing %s", want)
		}
	}
}

// TestCampaignMemoryMetricsRoundTrip pins memory as a first-class
// campaign metric: allocs/op, alloc bytes/op and the live-heap timeline
// populate every structure's metrics, survive the JSON round trip, and
// land in their CSV and Markdown columns.
func TestCampaignMemoryMetricsRoundTrip(t *testing.T) {
	registerTestImpls()
	cmp, err := Campaign{
		Base:    Workload{Goroutines: 2, Ops: 4000, Seed: 1},
		Entries: []Entry{{Counter: "test-alpha"}, {Counter: "test-batch"}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cmp.Results {
		r := &cmp.Results[i]
		a := &r.Metrics.Aggregate
		if a.AllocsPerOp < 0 || a.AllocBytesPerOp < 0 {
			t.Errorf("%s: negative memory metrics: %v allocs/op, %v B/op", r.Label, a.AllocsPerOp, a.AllocBytesPerOp)
		}
		if a.LivePeakBytes <= 0 {
			t.Errorf("%s: live peak %d, want > 0 (a live Go heap is never empty)", r.Label, a.LivePeakBytes)
		}
		if len(a.MemTimeline) == 0 {
			t.Errorf("%s: empty live-heap timeline", r.Label)
		}
		for _, win := range a.MemTimeline {
			if win.PeakBytes <= 0 || win.EndNs <= win.StartNs {
				t.Errorf("%s: malformed mem window %+v", r.Label, win)
			}
		}
	}
	// JSON round trip: the memory fields survive marshal → unmarshal.
	data, err := json.Marshal(cmp)
	if err != nil {
		t.Fatal(err)
	}
	var back Comparison
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	a, b := &cmp.Results[0].Metrics.Aggregate, &back.Results[0].Metrics.Aggregate
	if a.AllocsPerOp != b.AllocsPerOp || a.LivePeakBytes != b.LivePeakBytes || len(a.MemTimeline) != len(b.MemTimeline) {
		t.Errorf("memory metrics changed across the JSON round trip: %v/%d/%d vs %v/%d/%d",
			a.AllocsPerOp, a.LivePeakBytes, len(a.MemTimeline), b.AllocsPerOp, b.LivePeakBytes, len(b.MemTimeline))
	}
	// CSV: the memory columns exist and every aggregate row fills them.
	out, err := cmp.MarshalCSV()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, name := range []string{"allocs_per_op", "alloc_bytes_per_op", "live_peak_bytes", "allocs_ratio", "live_peak_ratio"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("CSV header missing %q: %v", name, rows[0])
		}
	}
	for _, row := range rows[1:] {
		if row[1] != "aggregate" {
			continue
		}
		if row[col["allocs_per_op"]] == "" || row[col["live_peak_bytes"]] == "" || row[col["live_peak_bytes"]] == "0" {
			t.Errorf("aggregate row leaves memory cells empty: %v", row)
		}
	}
	// Markdown: the memory columns render with the footnote explaining them.
	md, err := cmp.MarshalMarkdown()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"allocs/op", "live peak", "Δalloc"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("markdown missing %q in:\n%s", want, md)
		}
	}
}

// TestCampaignSharedSchedule pins the shared-seed guarantee the campaign
// documents: the same entry run twice under the same campaign base
// reproduces its per-phase op totals exactly.
func TestCampaignSharedSchedule(t *testing.T) {
	registerTestImpls()
	run := func() *Comparison {
		cmp, err := Campaign{
			Base:    Workload{Scenario: "spike?cycles=2", Goroutines: 2, Ops: 4000, Seed: 7},
			Entries: []Entry{{Counter: "test-alpha"}, {Counter: "test-zulu"}},
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return cmp
	}
	a, b := run(), run()
	for i := range a.Results {
		for j := range a.Results[i].Metrics.Phases {
			pa, pb := a.Results[i].Metrics.Phases[j], b.Results[i].Metrics.Phases[j]
			if pa.Ops != pb.Ops || pa.CounterOps != pb.CounterOps {
				t.Errorf("%s phase %q not reproducible: %d/%d vs %d/%d ops",
					a.Results[i].Label, pa.Name, pa.Ops, pa.CounterOps, pb.Ops, pb.CounterOps)
			}
		}
	}
}

// TestCampaignAllocRatioGrace pins the Δalloc column: two rows that both
// read 0.00 allocs/op (here 0.0039 vs 0.00002, whose raw quotient is
// 195x) get no ratio, and neither does any pair with a side under
// AllocGrace; real allocation counts still compare.
func TestCampaignAllocRatioGrace(t *testing.T) {
	for _, c := range []struct{ n, d, want float64 }{
		{0.0039, 0.00002, 0},
		{0.00002, 0.0039, 0},
		{0.4, 3, 0},
		{3, 0.4, 0},
		{0.5, 0.5, 1},
		{3, 1.5, 2},
	} {
		if got := allocRatio(c.n, c.d); got != c.want {
			t.Errorf("allocRatio(%v, %v) = %v, want %v", c.n, c.d, got, c.want)
		}
	}
}
