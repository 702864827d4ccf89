// Package core is the experiment harness that reproduces every theorem,
// figure and discussion point of Busch & Tirthapura, "Concurrent counting
// is harder than queuing", as a measurable experiment. Each experiment
// (E1–E16, see DESIGN.md) couples workload generation, protocol execution
// on the synchronous simulator, and the paper's symbolic bounds into one
// table of paper-versus-measured rows. Experiments self-register (see
// Register), and the shared-memory experiment enumerates its protocols
// from the public repro/countq registry.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/countq"
	"repro/internal/arrow"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Config controls an experiment run.
type Config struct {
	// Quick shrinks problem sizes so the whole suite runs in seconds
	// (used by tests); the full sizes are used by the CLI and benches.
	Quick bool
	// Seed drives all randomized workloads; runs are reproducible.
	Seed int64
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Ref     string // paper reference (theorem / figure)
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form note shown under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", t.ID, t.Title, t.Ref)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len([]rune(cell)); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Spec describes one experiment.
type Spec struct {
	ID    string
	Title string
	Ref   string
	Run   func(cfg Config) (*Table, error)
}

var (
	specMu sync.RWMutex
	specs  = make(map[string]*Spec)
)

// Register records an experiment spec, keyed by ID. Each experiments_*.go
// file registers its own specs from init, so adding an experiment file is
// all it takes to extend the suite. Registering an empty ID, a nil Run, or
// an ID twice panics.
func Register(s *Spec) {
	specMu.Lock()
	defer specMu.Unlock()
	if s == nil || s.ID == "" || s.Run == nil {
		panic("core: Register with empty ID or nil Run")
	}
	key := strings.ToUpper(s.ID)
	if _, dup := specs[key]; dup {
		panic(fmt.Sprintf("core: experiment %s registered twice", s.ID))
	}
	specs[key] = s
}

// Experiments returns all registered experiment specs in suite order
// (numeric when IDs share a prefix, e.g. E2 before E10).
func Experiments() []*Spec {
	specMu.RLock()
	out := make([]*Spec, 0, len(specs))
	for _, s := range specs {
		out = append(out, s)
	}
	specMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return specLess(out[i].ID, out[j].ID) })
	return out
}

// specLess orders experiment IDs with numeric suffix awareness.
func specLess(a, b string) bool {
	pa, na := splitNum(a)
	pb, nb := splitNum(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

// splitNum splits a trailing decimal number off an ID ("E12" → "E", 12).
func splitNum(id string) (string, int) {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) {
		return id, -1
	}
	n := 0
	for _, c := range id[i:] {
		n = n*10 + int(c-'0')
	}
	return id[:i], n
}

// Lookup returns the spec with the given ID (case-insensitive), or nil.
func Lookup(id string) *Spec {
	specMu.RLock()
	defer specMu.RUnlock()
	return specs[strings.ToUpper(id)]
}

// --- shared workload helpers ---

// allRequests marks every node as a requester (the paper's worst case for
// the lower bounds).
func allRequests(n int) []bool {
	r := make([]bool, n)
	for i := range r {
		r[i] = true
	}
	return r
}

// randomRequests marks each node independently with the given density.
func randomRequests(n int, density float64, rng *rand.Rand) []bool {
	r := make([]bool, n)
	for i := range r {
		r[i] = rng.Float64() < density
	}
	return r
}

func requestList(req []bool) []int {
	var out []int
	for v, b := range req {
		if b {
			out = append(out, v)
		}
	}
	return out
}

// heapTree returns the balanced binary "heap" tree on n vertices
// (parent(v) = ⌊(v-1)/2⌋) — a constant-degree, logarithmic-depth spanning
// tree of the complete graph.
func heapTree(n int) *tree.Tree {
	parent := make([]int, n)
	for v := 1; v < n; v++ {
		parent[v] = (v - 1) / 2
	}
	return tree.MustFromParents(0, parent)
}

// identityPathTree returns the path tree 0→1→…→n-1.
func identityPathTree(n int) *tree.Tree {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	t, err := tree.PathTree(order)
	if err != nil {
		panic(err)
	}
	return t
}

// hamiltonPathTree builds the spanning tree used by Theorem 4.5: the
// graph's Hamilton path, rooted at its first vertex.
func hamiltonPathTree(g *graph.Graph) (*tree.Tree, error) {
	order, err := graph.HamiltonPath(g)
	if err != nil {
		return nil, err
	}
	return tree.PathTree(order)
}

// countingPortfolio runs the counting protocols on (g, tr) and returns the
// name and total delay of the cheapest, plus all totals keyed by name.
// Counting-network widths adapt to n. All runs use capacity 1 (the model's
// base budget).
func countingPortfolio(g *graph.Graph, tr *tree.Tree, req []bool) (string, int, map[string]int, error) {
	totals := make(map[string]int)
	var ops []sim.ScriptOp
	for v, r := range req {
		if r {
			ops = append(ops, sim.ScriptOp{Node: v, Op: countq.Op{Kind: countq.OpInc, N: 1}})
		}
	}
	central, err := runScript(g, tr, sim.NewCentralCounter, ops)
	if err != nil {
		return "", 0, nil, fmt.Errorf("central: %w", err)
	}
	totals["central"] = central
	tc, err := counting.NewTreeCount(tr, req)
	if err != nil {
		return "", 0, nil, err
	}
	if res, err := counting.Run(g, tc, 1); err == nil {
		totals["treecount"] = res.TotalDelay
	} else {
		return "", 0, nil, fmt.Errorf("treecount: %w", err)
	}
	width := 8
	if g.N() < 16 {
		width = 2
	}
	cn, err := counting.NewCountNet(tr, req, width, nil)
	if err != nil {
		return "", 0, nil, err
	}
	cn.WithShortcuts() // free on sparse graphs, decisive on dense ones
	if res, err := counting.Run(g, cn, 1); err == nil {
		totals[fmt.Sprintf("countnet%d", width)] = res.TotalDelay
	} else {
		return "", 0, nil, fmt.Errorf("countnet: %w", err)
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	best, bestTotal := "", -1
	for _, name := range names {
		if bestTotal < 0 || totals[name] < bestTotal {
			best, bestTotal = name, totals[name]
		}
	}
	return best, bestTotal, totals, nil
}

// runArrow executes the arrow protocol and returns its total delay.
func runArrow(g *graph.Graph, tr *tree.Tree, tail int, req []bool, capacity int) (int, error) {
	res, err := arrow.RunOneShot(g, tr, tail, req, capacity)
	if err != nil {
		return 0, err
	}
	return res.TotalDelay, nil
}

// runScript runs ops through the protocol mk on (g, tr) at capacity 1,
// validates the counts or the queue order together with the
// quiescent-point real-time order, and returns the total latency.
func runScript(g *graph.Graph, tr *tree.Tree, mk sim.ProtoMaker, ops []sim.ScriptOp) (int, error) {
	res, err := sim.RunScript(sim.Config{Graph: g}, tr, mk, ops)
	if err != nil {
		return 0, err
	}
	if err := sim.VerifyRealTimeOrder(ops, res); err != nil {
		return 0, err
	}
	return res.TotalLatency, nil
}
