package regions

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dfg/internal/cfg"
	"dfg/internal/graph"
	"dfg/internal/lang/ast"
	"dfg/internal/lang/parser"
	"dfg/internal/workload"
)

// bruteUndirectedClasses decides undirected cycle equivalence from the
// definition, for tests only. An edge is a bridge iff removing it
// disconnects its endpoints. Two bridges are (vacuously) equivalent; a
// bridge and a cycle edge never are. Cycle edges a and b are equivalent iff
// every cycle through either passes the other, that is iff removing both
// disconnects the endpoints of a and those of b. A self-loop lies on no
// cycle but itself, so it is alone in its class.
func bruteUndirectedClasses(n int, ends [][2]int) []int {
	connected := func(x, y int, skip1, skip2 int) bool {
		seen := make([]bool, n)
		stack := []int{x}
		seen[x] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if u == y {
				return true
			}
			for e, ab := range ends {
				if e == skip1 || e == skip2 {
					continue
				}
				for _, p := range [][2]int{{ab[0], ab[1]}, {ab[1], ab[0]}} {
					if p[0] == u && !seen[p[1]] {
						seen[p[1]] = true
						stack = append(stack, p[1])
					}
				}
			}
		}
		return false
	}
	m := len(ends)
	bridge := make([]bool, m)
	for e, ab := range ends {
		bridge[e] = !connected(ab[0], ab[1], e, -1)
	}
	equiv := func(a, b int) bool {
		if a == b {
			return true
		}
		if bridge[a] || bridge[b] {
			return bridge[a] && bridge[b]
		}
		return !connected(ends[a][0], ends[a][1], a, b) && !connected(ends[b][0], ends[b][1], a, b)
	}
	classOf := make([]int, m)
	next := 0
	for a := 0; a < m; a++ {
		classOf[a] = -1
		for b := 0; b < a; b++ {
			if equiv(a, b) {
				classOf[a] = classOf[b]
				break
			}
		}
		if classOf[a] < 0 {
			classOf[a] = next
			next++
		}
	}
	return classOf
}

// samePartitionInts reports whether two class labelings induce the same
// partition.
func samePartitionInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ab, ba := map[int]int{}, map[int]int{}
	for i := range a {
		if c, ok := ab[a[i]]; ok && c != b[i] {
			return false
		}
		if c, ok := ba[b[i]]; ok && c != a[i] {
			return false
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return true
}

// TestUndirectedCycleEquivMatchesBrute checks the flat bracket-list
// implementation against the definition on random connected multigraphs
// with parallel edges and self-loops.
func TestUndirectedCycleEquivMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		var ends [][2]int
		// A random spanning tree keeps the graph connected.
		for v := 1; v < n; v++ {
			ends = append(ends, [2]int{rng.Intn(v), v})
		}
		for k := rng.Intn(2 * n); k > 0; k-- {
			ends = append(ends, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		rng.Shuffle(len(ends), func(i, j int) { ends[i], ends[j] = ends[j], ends[i] })
		u := graph.NewUndirected(n, len(ends))
		for _, ab := range ends {
			u.AddEdge(ab[0], ab[1])
		}
		got, num := UndirectedCycleEquiv(u)
		if err := validateClasses(got, num); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := bruteUndirectedClasses(n, ends); !samePartitionInts(got, want) {
			t.Fatalf("trial %d: n=%d edges=%v\ngot  %v\nwant %v", trial, n, ends, got, want)
		}
	}
}

// TestEdgeClassesWorkloadFamilies runs the brute-force control-dependence
// and directed cycle-equivalence oracles over every workload family,
// including the irreducible and goto-heavy ones, so the contracted node
// expansion EdgeClasses builds is proven on each CFG shape the engine
// serves.
func TestEdgeClassesWorkloadFamilies(t *testing.T) {
	progs := map[string]*ast.Program{
		"nestedsum-4": workload.NestedSum(4),
		"loopnest":    workload.LoopNest(3, 2, 1),
		"diamonds":    workload.DiamondLadder(4, 3, 1),
		"wideswitch":  workload.WideSwitch(6, 3, 1),
	}
	for seed := int64(0); seed < 6; seed++ {
		progs[fmt.Sprintf("irreducible-%d", seed)] = workload.Irreducible(6, seed)
		progs[fmt.Sprintf("wide-%d", seed)] = workload.Wide(8, seed)
		progs[fmt.Sprintf("redundant-%d", seed)] = workload.Redundant(4, seed)
	}
	for name, p := range progs {
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstOracles(t, g, name)
	}
}

// edgeClassesMaxAllocs bounds the heap allocations of one EdgeClasses call,
// whatever the graph's size: the edge table, the flat edge list, the CSR
// adjacency with its fill cursors, one working arena, the raw classes and
// the renumbering table.
const edgeClassesMaxAllocs = 8

// TestEdgeClassesAllocsConstant is the deterministic allocation gate: the
// count of allocations per EdgeClasses call must not grow with E.
func TestEdgeClassesAllocsConstant(t *testing.T) {
	ladder := []struct {
		name string
		prog *ast.Program
	}{
		{"mixed-15", workload.Mixed(15, 1)},
		{"mixed-250", workload.Mixed(250, 1)},
		{"mixed-2000", workload.Mixed(2000, 1)},
		{"wide-300", workload.Wide(300, 1)},
		{"irreducible-40", workload.Irreducible(40, 1)},
	}
	for _, c := range ladder {
		g, err := cfg.Build(c.prog)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(5, func() { EdgeClasses(g) })
		t.Logf("%s: %d edges, %.0f allocs", c.name, g.NumEdges(), allocs)
		if allocs > edgeClassesMaxAllocs {
			t.Errorf("%s (%d edges): %.0f allocations per EdgeClasses call, want <= %d",
				c.name, g.NumEdges(), allocs, edgeClassesMaxAllocs)
		}
	}
}

// cycleEquivMaxOpsPerEdge bounds cycleEquiv's operation count per live CFG
// edge. Each contracted undirected edge costs two DFS steps (one per
// endpoint's adjacency entry), at most one push and one delete as a
// bracket, and one concat as a tree edge; the measured figure is about 6
// on every family below.
const cycleEquivMaxOpsPerEdge = 8

// TestCycleEquivOpsLinear is the paper's §3.1 claim as a deterministic
// gate: cycle equivalence runs in O(E). For each size ladder it fits the
// log-log slope of cycleEquiv's operation count against the live edge
// count, and asserts the slope is at most 1.1 and the count per edge stays
// under a fixed bound. No timing is involved, so the gate holds on any
// host. The nested-if ladder is the one whose bracket lists grow with the
// program: the DFS runs down the then-arms and every else-arm brackets the
// whole path below its condition, so an implementation that copied bracket
// lists instead of splicing them would go quadratic there (slope 1.7).
func TestCycleEquivOpsLinear(t *testing.T) {
	ladders := map[string][]*ast.Program{}
	for _, n := range []int{250, 500, 1000, 2000, 4000, 8000} {
		ladders["mixed"] = append(ladders["mixed"], workload.Mixed(n, 1))
	}
	for _, v := range []int{4, 8, 16, 32, 64, 128} {
		ladders["wideswitch"] = append(ladders["wideswitch"], workload.WideSwitch(40, v, 1))
	}
	for _, n := range []int{25, 50, 100, 200, 400, 800} {
		ladders["irreducible"] = append(ladders["irreducible"], workload.Irreducible(n, 1))
	}
	for _, d := range []int{8, 16, 32, 64, 128, 256} {
		ladders["loopnest"] = append(ladders["loopnest"], workload.LoopNest(d, 2, 1))
		ladders["nested-if"] = append(ladders["nested-if"], nestedIf(d))
	}
	for name, progs := range ladders {
		var xs, ys []float64
		for _, p := range progs {
			g, err := cfg.Build(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			live := 0
			for _, e := range g.Edges {
				if !e.Dead {
					live++
				}
			}
			_, _, ops := edgeClasses(g)
			if per := float64(ops) / float64(live); per > cycleEquivMaxOpsPerEdge {
				t.Errorf("%s: %d ops over %d live edges (%.2f per edge), want <= %d",
					name, ops, live, per, cycleEquivMaxOpsPerEdge)
			}
			xs = append(xs, math.Log(float64(live)))
			ys = append(ys, math.Log(float64(ops)))
		}
		if slope := fitSlope(xs, ys); slope > 1.1 {
			t.Errorf("%s: cycle-equivalence ops grow as E^%.2f, want slope <= 1.1", name, slope)
		}
	}
}

// nestedIf returns depth if-else statements, each nested in the previous
// one's then-arm.
func nestedIf(depth int) *ast.Program {
	var b strings.Builder
	b.WriteString("read a;\n")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "if (a > %d) {\na := a + 1;\n", i)
	}
	for i := 0; i < depth; i++ {
		b.WriteString("} else {\na := a - 1;\n}\n")
	}
	b.WriteString("print a;\n")
	return parser.MustParse(b.String())
}

// fitSlope is the least-squares slope of ys against xs.
func fitSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
