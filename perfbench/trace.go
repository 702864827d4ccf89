package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Op links the spans of one
// operation; ID and Parent give the span tree. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(x time.Time) int64 { return x.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its id; a nil tracer records nothing.
func (t *tracer) add(parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	return t.next
}

// addOps files per-operation spans under whichever of the candidate
// parents covers each one's start, else under fallback.
func (t *tracer) addOps(ops []span, parents []uint64, fallback uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[uint64]span, len(parents))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	for _, o := range ops {
		t.next++
		o.ID, o.Parent = t.next, fallback
		for _, p := range parents {
			if s := byID[p]; o.Start >= s.Start && o.Start < s.End {
				o.Parent = p
				break
			}
		}
		t.spans = append(t.spans, o)
	}
}

// layerTime is the traced time of every span of one name: the summed
// duration and the self time, the part not covered by child spans.
type layerTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes folds the spans into per-name totals. A span's self time is
// its duration minus the union of its children's intervals, clipped to
// the span.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range t.spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		lo, hi := int64(0), int64(-1)
		for _, k := range kids {
			a, b := max64(k.Start, s.Start), min64(k.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		l := agg[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			agg[s.Name] = l
		}
		l.Spans++
		l.TotalS += float64(s.End-s.Start) / 1e9
		l.SelfS += float64(s.End-s.Start-covered) / 1e9
	}
	out := make([]layerTime, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is the summary a traced run writes next to its spans.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Host     host        `json:"host"`
	Layers   []layerTime `json:"layers"`
	Metrics  []metric    `json:"metrics"`
	Spans    string      `json:"spans_file"`
}

// write stores the spans as JSON lines and the summary as one JSON file
// under dir, returning the summary's path.
func (t *tracer) write(dir string, sum traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", sum.Workload, sum.Seed))
	sum.Spans = base + ".spans.jsonl"
	f, err := os.Create(sum.Spans)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	sum.Layers = t.selfTimes()
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return "", err
	}
	path := base + ".json"
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
