package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/countq"
)

// benchFile mirrors the -benchjson output of TestBenchJSON: campaign
// Comparisons, one per registry sweep group.
type benchFile struct {
	GoMaxProcs  int                  `json:"gomaxprocs"`
	Ops         int                  `json:"ops_per_run"`
	Comparisons []*countq.Comparison `json:"comparisons"`
}

// benchPoint is one record's regression-relevant numbers: aggregate p99
// per op kind, aggregate throughput, and aggregate allocations per op.
type benchPoint struct {
	counterP99 float64
	queueP99   float64
	opsPerSec  float64
	allocsOp   float64
}

// benchdiffCmd implements `countq benchdiff [-noise F] OLD.json NEW.json`:
// it matches records across two -benchjson files by campaign name and
// structure label, compares p99 latency and throughput within a
// multiplicative noise band, prints the deltas, and exits nonzero when any
// record regressed beyond the band — the perf regression gate.
func benchdiffCmd(args []string) {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	noise := fs.Float64("noise", 0.10, "allowed fractional regression before failing (0.10 = 10%; CI diffing across machines wants a much wider band)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: countq benchdiff [-noise F] OLD.json NEW.json")
		os.Exit(2)
	}
	if *noise < 0 {
		fmt.Fprintf(os.Stderr, "countq benchdiff: negative noise band %v\n", *noise)
		os.Exit(2)
	}
	regressions, err := diffBenchFiles(os.Stdout, fs.Arg(0), fs.Arg(1), *noise)
	if err != nil {
		fmt.Fprintln(os.Stderr, "countq benchdiff:", err)
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "countq benchdiff: %d metric(s) regressed beyond the %.0f%% noise band\n", regressions, *noise*100)
		os.Exit(1)
	}
}

// loadBenchFile reads and decodes one -benchjson file, rejecting the
// pre-campaign format (a top-level "results" array of bare Metrics) with
// a regeneration hint instead of silently diffing nothing.
func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Comparisons) == 0 {
		var legacy struct {
			Results []json.RawMessage `json:"results"`
		}
		if json.Unmarshal(data, &legacy) == nil && len(legacy.Results) > 0 {
			return nil, fmt.Errorf("%s is a pre-campaign benchjson file (flat \"results\"); regenerate it with `go test -run TestBenchJSON -benchjson %s .`", path, path)
		}
		return nil, fmt.Errorf("%s has no comparisons", path)
	}
	return &f, nil
}

// benchPoints flattens a bench file into points keyed by
// "campaign/structure-label".
func benchPoints(f *benchFile) map[string]benchPoint {
	points := make(map[string]benchPoint)
	for _, cmp := range f.Comparisons {
		for i := range cmp.Results {
			r := &cmp.Results[i]
			a := &r.Metrics.Aggregate
			pt := benchPoint{opsPerSec: a.OpsPerSec(), allocsOp: a.AllocsPerOp}
			if a.CounterLat != nil {
				pt.counterP99 = a.CounterLat.P99Ns
			}
			if a.QueueLat != nil {
				pt.queueP99 = a.QueueLat.P99Ns
			}
			points[cmp.Name+"/"+r.Label] = pt
		}
	}
	return points
}

// diffBenchFiles compares the two files' shared records and reports the
// number of metrics that regressed beyond the noise band. Records present
// in only one file are listed but never fail the diff — a new structure
// must not need a baseline edit to land, and a removed one must not wedge
// the gate.
func diffBenchFiles(w io.Writer, oldPath, newPath string, noise float64) (int, error) {
	oldFile, err := loadBenchFile(oldPath)
	if err != nil {
		return 0, err
	}
	newFile, err := loadBenchFile(newPath)
	if err != nil {
		return 0, err
	}
	oldPts, newPts := benchPoints(oldFile), benchPoints(newFile)
	keys := make([]string, 0, len(oldPts))
	for k := range oldPts {
		if _, ok := newPts[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "benchdiff %s (gomaxprocs %d, %d ops) -> %s (gomaxprocs %d, %d ops), noise band %.0f%%\n",
		oldPath, oldFile.GoMaxProcs, oldFile.Ops, newPath, newFile.GoMaxProcs, newFile.Ops, noise*100)
	fmt.Fprintf(w, "%-54s %-14s %12s %12s %8s\n", "record", "metric", "old", "new", "delta")
	regressions := 0
	check := func(key, metric string, old, new float64, higherIsBetter bool) {
		if old <= 0 || new <= 0 {
			return // not measured on both sides
		}
		delta := new/old - 1
		flag := ""
		regressed := false
		if higherIsBetter {
			regressed = new < old/(1+noise)
		} else {
			regressed = new > old*(1+noise)
		}
		if regressed {
			flag = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-54s %-14s %12.1f %12.1f %+7.1f%%%s\n", key, metric, old, new, delta*100, flag)
	}
	// Allocations per op use the same noise band plus an absolute
	// half-alloc grace (countq.AllocGrace): the whole-process GC
	// counters jitter near zero (timer resets, GC bookkeeping), so
	// 0 → 0.3 is measurement noise while 0 → 1 is a real object on the
	// hot path — exactly the regression the zero-allocation gates exist
	// to catch. Unlike the ratio metrics, an old value of 0 still
	// participates.
	checkAllocs := func(key string, old, new float64) {
		if old < 0 || new < 0 {
			return
		}
		flag := ""
		if new > old*(1+noise)+countq.AllocGrace {
			flag = "  REGRESSION"
			regressions++
		}
		deltaCell := "     new"
		if old > 0 {
			deltaCell = fmt.Sprintf("%+7.1f%%", (new/old-1)*100)
		} else if new == 0 {
			deltaCell = "       ="
		}
		fmt.Fprintf(w, "%-54s %-14s %12.2f %12.2f %s%s\n", key, "allocs/op", old, new, deltaCell, flag)
	}
	for _, k := range keys {
		o, n := oldPts[k], newPts[k]
		check(k, "counter p99", o.counterP99, n.counterP99, false)
		check(k, "queue p99", o.queueP99, n.queueP99, false)
		check(k, "ops/sec", o.opsPerSec, n.opsPerSec, true)
		checkAllocs(k, o.allocsOp, n.allocsOp)
	}
	reportOnly := func(pts map[string]benchPoint, other map[string]benchPoint, which string) {
		var only []string
		for k := range pts {
			if _, ok := other[k]; !ok {
				only = append(only, k)
			}
		}
		sort.Strings(only)
		for _, k := range only {
			fmt.Fprintf(w, "%-54s only in %s file (not compared)\n", k, which)
		}
	}
	reportOnly(oldPts, newPts, "old")
	reportOnly(newPts, oldPts, "new")
	return regressions, nil
}
