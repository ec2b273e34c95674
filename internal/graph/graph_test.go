package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond: 0 -> 1,2 -> 3
func diamond() *Directed {
	d := NewDirected(4)
	d.AddEdge(0, 1)
	d.AddEdge(0, 2)
	d.AddEdge(1, 3)
	d.AddEdge(2, 3)
	return d
}

func TestGroup(t *testing.T) {
	keys := []int{2, 0, -1, 2, 0, 1}
	off, list := Group(4, len(keys), func(i int) int { return keys[i] })
	want := [][]int{{1, 4}, {5}, {0, 3}, {}}
	for k, w := range want {
		got := list[off[k]:off[k+1]]
		if len(got) != len(w) {
			t.Fatalf("group %d = %v, want %v", k, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("group %d = %v, want %v", k, got, w)
			}
		}
	}
}

// TestNewDirectedDegrees: a graph with reserved rows behaves like one built
// by appending, and adding the reserved edges does not spill a row into its
// neighbour.
func TestNewDirectedDegrees(t *testing.T) {
	d := NewDirectedDegrees([]int{2, 1, 2, 0})
	d.AddEdge(0, 1)
	d.AddEdge(2, 1)
	d.AddEdge(0, 2)
	d.AddEdge(1, 2)
	d.AddEdge(2, 3)
	ref := NewDirected(4)
	ref.AddEdge(0, 1)
	ref.AddEdge(2, 1)
	ref.AddEdge(0, 2)
	ref.AddEdge(1, 2)
	ref.AddEdge(2, 3)
	for u := range ref.Succ {
		if len(d.Succ[u]) != len(ref.Succ[u]) {
			t.Fatalf("Succ[%d] = %v, want %v", u, d.Succ[u], ref.Succ[u])
		}
		for i := range ref.Succ[u] {
			if d.Succ[u][i] != ref.Succ[u][i] {
				t.Errorf("Succ[%d] = %v, want %v", u, d.Succ[u], ref.Succ[u])
			}
		}
	}
	if p := d.Preds(); len(p[1]) != 2 || p[1][0] != 0 || p[1][1] != 2 || len(p[2]) != 2 {
		t.Errorf("Preds = %v", p)
	}
}

// loop: 0 -> 1 -> 2 -> 1, 2 -> 3
func loop() *Directed {
	d := NewDirected(4)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(2, 1)
	d.AddEdge(2, 3)
	return d
}

func TestDFSOrders(t *testing.T) {
	d := diamond()
	res := DFS(d, 0)
	if len(res.Preorder) != 4 || len(res.Postorder) != 4 {
		t.Fatalf("orders %v / %v", res.Preorder, res.Postorder)
	}
	if res.Preorder[0] != 0 {
		t.Error("preorder must start at root")
	}
	if res.Postorder[3] != 0 {
		t.Error("postorder must end at root")
	}
	// Parent relation is a tree rooted at 0.
	if res.Parent[0] != -1 {
		t.Error("root has no parent")
	}
	for _, v := range []int{1, 2, 3} {
		if res.Parent[v] == -1 {
			t.Errorf("node %d unreachable", v)
		}
	}
}

func TestDFSUnreachable(t *testing.T) {
	d := NewDirected(3)
	d.AddEdge(0, 1)
	res := DFS(d, 0)
	if res.PreNum[2] != -1 || res.PostNum[2] != -1 {
		t.Error("node 2 should be unreachable")
	}
}

func TestReversePostorderTopological(t *testing.T) {
	// In a DAG, RPO is a topological order.
	d := diamond()
	rpo := ReversePostorder(d, 0)
	pos := map[int]int{}
	for i, n := range rpo {
		pos[n] = i
	}
	for u, ss := range d.Succ {
		for _, v := range ss {
			if pos[u] >= pos[v] {
				t.Errorf("RPO violates edge %d->%d: %v", u, v, rpo)
			}
		}
	}
}

func TestDominatorsDiamond(t *testing.T) {
	idom := Dominators(diamond(), 0)
	want := []int{0, 0, 0, 0}
	for i := range want {
		if idom[i] != want[i] {
			t.Errorf("idom[%d] = %d, want %d", i, idom[i], want[i])
		}
	}
}

func TestDominatorsLoop(t *testing.T) {
	idom := Dominators(loop(), 0)
	if idom[1] != 0 || idom[2] != 1 || idom[3] != 2 {
		t.Errorf("idom = %v", idom)
	}
}

func TestDominatesQuery(t *testing.T) {
	idom := Dominators(loop(), 0)
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 3, true}, {1, 3, true}, {2, 3, true}, {3, 3, true},
		{3, 1, false}, {2, 1, false}, {1, 0, false},
	}
	for _, c := range cases {
		if got := Dominates(idom, c.a, c.b); got != c.want {
			t.Errorf("Dominates(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// bruteDominators computes dominators by definition: a dominates b if
// removing a makes b unreachable from root.
func bruteDominators(d *Directed, root int) [][]bool {
	dom := make([][]bool, d.N)
	reach := func(skip int) []bool {
		seen := make([]bool, d.N)
		if root == skip {
			return seen
		}
		seen[root] = true
		stack := []int{root}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range d.Succ[u] {
				if v != skip && !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		return seen
	}
	full := reach(-1)
	for a := 0; a < d.N; a++ {
		dom[a] = make([]bool, d.N)
		without := reach(a)
		for b := 0; b < d.N; b++ {
			if !full[b] {
				continue // unreachable: dominance undefined
			}
			dom[a][b] = a == b || (full[a] && !without[b])
		}
	}
	return dom
}

func randomFlowGraph(rng *rand.Rand, n int) *Directed {
	d := NewDirected(n)
	// Spanning path guarantees reachability of a prefix; extra random edges.
	for i := 0; i+1 < n; i++ {
		d.AddEdge(i, i+1)
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		d.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return d
}

func TestDominatorsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		d := randomFlowGraph(rng, n)
		idom := Dominators(d, 0)
		brute := bruteDominators(d, 0)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if idom[b] == -1 {
					continue // unreachable
				}
				got := Dominates(idom, a, b)
				if got != brute[a][b] {
					t.Fatalf("trial %d: Dominates(%d,%d) = %v, brute = %v\ngraph: %v",
						trial, a, b, got, brute[a][b], d.Succ)
				}
			}
		}
	}
}

func TestDominanceFrontiersDiamond(t *testing.T) {
	d := diamond()
	idom := Dominators(d, 0)
	df := DominanceFrontiers(d, idom)
	// DF(1) = DF(2) = {3}; DF(0) = DF(3) = {}
	if len(df[1]) != 1 || df[1][0] != 3 {
		t.Errorf("DF(1) = %v", df[1])
	}
	if len(df[2]) != 1 || df[2][0] != 3 {
		t.Errorf("DF(2) = %v", df[2])
	}
	if len(df[0]) != 0 {
		t.Errorf("DF(0) = %v", df[0])
	}
}

func TestDominanceFrontiersLoop(t *testing.T) {
	d := loop()
	idom := Dominators(d, 0)
	df := DominanceFrontiers(d, idom)
	// Node 1 is a join (preds 0 and 2). DF(1) = {1}, DF(2) = {1}.
	has := func(xs []int, v int) bool {
		for _, x := range xs {
			if x == v {
				return true
			}
		}
		return false
	}
	if !has(df[1], 1) {
		t.Errorf("DF(1) = %v, want to contain 1", df[1])
	}
	if !has(df[2], 1) {
		t.Errorf("DF(2) = %v, want to contain 1", df[2])
	}
}

func TestSCCSimple(t *testing.T) {
	d := loop()
	comp, n := SCC(d)
	if n != 3 {
		t.Fatalf("components = %d, want 3 ({0},{1,2},{3})", n)
	}
	if comp[1] != comp[2] {
		t.Error("1 and 2 must share a component")
	}
	if comp[0] == comp[1] || comp[3] == comp[1] {
		t.Error("0 and 3 must be alone")
	}
	// Reverse topological numbering: successors have smaller numbers.
	if !(comp[3] < comp[1] && comp[1] < comp[0]) {
		t.Errorf("component order: %v", comp)
	}
}

func TestSCCProperty(t *testing.T) {
	// Property: u,v in same SCC iff mutually reachable.
	cfg := &quick.Config{MaxCount: 40}
	reach := func(d *Directed, from int) []bool {
		seen := make([]bool, d.N)
		seen[from] = true
		stack := []int{from}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range d.Succ[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		return seen
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		d := NewDirected(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			d.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		comp, _ := SCC(d)
		for u := 0; u < n; u++ {
			ru := reach(d, u)
			for v := 0; v < n; v++ {
				rv := reach(d, v)
				same := ru[v] && rv[u]
				if same != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUndirectedBasics(t *testing.T) {
	u := NewUndirected(3, 0)
	e0 := u.AddEdge(0, 1)
	e1 := u.AddEdge(1, 2)
	_ = u.AddEdge(2, 2) // self loop
	if e0 != 0 || e1 != 1 || u.M != 3 {
		t.Errorf("edge ids %d %d, M=%d", e0, e1, u.M)
	}
	if !u.Connected() {
		t.Error("graph should be connected")
	}
	// CSR: node 2 sees edge 1 and, once, its self loop.
	off, half := u.Adjacency()
	if got := half[off[2]:off[3]]; len(got) != 2 || got[0] != (Half{To: 1, Edge: 1}) || got[1] != (Half{To: 2, Edge: 2}) {
		t.Errorf("halves of node 2 = %v", got)
	}
	if off[3] != 5 {
		t.Errorf("%d halves, want 5 (two per edge, one per self loop)", off[3])
	}
	u2 := NewUndirected(3, 0)
	u2.AddEdge(0, 1)
	if u2.Connected() {
		t.Error("node 2 is isolated")
	}
}

func TestReverseAndPreds(t *testing.T) {
	d := diamond()
	r := d.Reverse()
	if len(r.Succ[3]) != 2 {
		t.Errorf("reverse succ of 3: %v", r.Succ[3])
	}
	p := d.Preds()
	if len(p[3]) != 2 || len(p[0]) != 0 {
		t.Errorf("preds: %v", p)
	}
}

func TestDominatorDepths(t *testing.T) {
	idom := Dominators(loop(), 0)
	depth := DominatorDepths(idom)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if depth[i] != want[i] {
			t.Errorf("depth[%d] = %d, want %d", i, depth[i], want[i])
		}
	}
}
