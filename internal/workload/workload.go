// Package workload generates deterministic synthetic programs for tests and
// for the scaling experiments of EXPERIMENTS.md. Three kinds of generators
// are provided:
//
//   - Random structured/unstructured programs (Generate) used for
//     differential testing: every generated program terminates (loops are
//     bounded by dedicated counters) so the interpreter can compare
//     observable behaviour before and after optimization.
//
//   - Named scaling families that exhibit the paper's asymptotic claims:
//     StraightLine, DiamondLadder (def-use blow-up, E10), LoopNest,
//     WideSwitch (constant propagation V-sweep, E4), Wide (breadth-heavy
//     sibling regions for the parallel analyses), and GotoMess
//     (irreducible control flow for the cycle-equivalence benches, E8).
//
//   - Planted-redundancy programs for the EPR transformation tests:
//     Redundant (every unit a genuine partial redundancy) and NestedSum
//     (a redundancy that takes one transformation round per level).
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"dfg/internal/lang/ast"
	"dfg/internal/lang/parser"
	"dfg/internal/lang/token"
)

// Config parameterizes Generate.
type Config struct {
	Stmts     int     // target number of statements (approximate)
	Vars      int     // number of distinct variables (>=1)
	MaxDepth  int     // maximum nesting depth of if/while
	PIf       float64 // probability a statement is an if
	PWhile    float64 // probability a statement is a while
	PRead     float64 // probability a statement is a read
	PPrint    float64 // probability a statement is a print
	LoopBound int     // iteration bound for generated loops (default 3)
	Seed      int64
}

// DefaultConfig returns a config producing mixed structured programs of
// roughly n statements.
func DefaultConfig(n int, seed int64) Config {
	return Config{
		Stmts:     n,
		Vars:      4 + n/10,
		MaxDepth:  4,
		PIf:       0.18,
		PWhile:    0.10,
		PRead:     0.08,
		PPrint:    0.10,
		LoopBound: 3,
		Seed:      seed,
	}
}

type gen struct {
	rng      *rand.Rand
	cfg      Config
	vars     []string
	counters int // loop counter suffix
	budget   int
}

// Generate produces a random structured program. Programs always terminate:
// every while loop uses a dedicated fresh counter variable bounded by
// Config.LoopBound, and the counter is never assigned in the body. The
// program begins with reads of a few variables (so values are
// runtime-unknown) and ends by printing every variable (so optimizations
// are observable).
func Generate(c Config) *ast.Program {
	if c.Vars < 1 {
		c.Vars = 1
	}
	if c.LoopBound <= 0 {
		c.LoopBound = 3
	}
	g := &gen{rng: rand.New(rand.NewSource(c.Seed)), cfg: c, budget: c.Stmts}
	for i := 0; i < c.Vars; i++ {
		g.vars = append(g.vars, fmt.Sprintf("v%d", i))
	}
	var stmts []ast.Stmt
	// Seed a few unknown inputs.
	reads := 1 + c.Vars/3
	for i := 0; i < reads && i < c.Vars; i++ {
		stmts = append(stmts, &ast.ReadStmt{Name: g.vars[i]})
	}
	// Initialize the rest so every variable is defined before use.
	for i := reads; i < c.Vars; i++ {
		stmts = append(stmts, &ast.AssignStmt{Name: g.vars[i], RHS: &ast.IntLit{Value: int64(g.rng.Intn(10))}})
	}
	for g.budget > 0 {
		stmts = append(stmts, g.block(0)...)
	}
	for _, v := range g.vars {
		stmts = append(stmts, &ast.PrintStmt{Arg: &ast.VarRef{Name: v}})
	}
	return &ast.Program{Stmts: stmts}
}

func (g *gen) pick() string { return g.vars[g.rng.Intn(len(g.vars))] }

func bin(op token.Kind, x, y ast.Expr) ast.Expr {
	return &ast.BinaryExpr{Op: op, X: x, Y: y}
}

func (g *gen) expr(depth int) ast.Expr {
	if depth <= 0 || g.rng.Float64() < 0.4 {
		if g.rng.Float64() < 0.5 {
			return &ast.IntLit{Value: int64(g.rng.Intn(20))}
		}
		return &ast.VarRef{Name: g.pick()}
	}
	ops := []token.Kind{token.PLUS, token.MINUS, token.STAR}
	op := ops[g.rng.Intn(len(ops))]
	return bin(op, g.expr(depth-1), g.expr(depth-1))
}

func (g *gen) cond() ast.Expr {
	ops := []token.Kind{token.LT, token.LE, token.GT, token.GE, token.EQ, token.NEQ}
	op := ops[g.rng.Intn(len(ops))]
	return bin(op, &ast.VarRef{Name: g.pick()}, &ast.IntLit{Value: int64(g.rng.Intn(10))})
}

// block generates a short statement sequence at the given nesting depth.
func (g *gen) block(depth int) []ast.Stmt {
	var stmts []ast.Stmt
	n := 1 + g.rng.Intn(4)
	for i := 0; i < n && g.budget > 0; i++ {
		stmts = append(stmts, g.stmt(depth)...)
	}
	return stmts
}

// stmt generates one logical statement; loops expand to an initializer plus
// the loop itself, hence the slice result.
func (g *gen) stmt(depth int) []ast.Stmt {
	g.budget--
	r := g.rng.Float64()
	c := g.cfg
	switch {
	case depth < c.MaxDepth && r < c.PIf:
		var els []ast.Stmt
		if g.rng.Float64() < 0.6 {
			els = g.block(depth + 1)
		}
		return []ast.Stmt{&ast.IfStmt{Cond: g.cond(), Then: g.block(depth + 1), Else: els}}
	case depth < c.MaxDepth && r < c.PIf+c.PWhile:
		g.counters++
		ctr := fmt.Sprintf("c%d", g.counters)
		body := g.block(depth + 1)
		body = append(body, &ast.AssignStmt{Name: ctr, RHS: bin(token.PLUS, &ast.VarRef{Name: ctr}, &ast.IntLit{Value: 1})})
		return []ast.Stmt{
			&ast.AssignStmt{Name: ctr, RHS: &ast.IntLit{Value: 0}},
			&ast.WhileStmt{
				Cond: bin(token.LT, &ast.VarRef{Name: ctr}, &ast.IntLit{Value: int64(c.LoopBound)}),
				Body: body,
			},
		}
	case r < c.PIf+c.PWhile+c.PRead:
		return []ast.Stmt{&ast.ReadStmt{Name: g.pick()}}
	case r < c.PIf+c.PWhile+c.PRead+c.PPrint:
		return []ast.Stmt{&ast.PrintStmt{Arg: g.expr(2)}}
	default:
		return []ast.Stmt{&ast.AssignStmt{Name: g.pick(), RHS: g.expr(2)}}
	}
}

// ---------------------------------------------------------------------------
// Named scaling families

// StraightLine returns a program of n assignments over k variables followed
// by prints. All edges are cycle equivalent (one class).
func StraightLine(n, k int, seed int64) *ast.Program {
	rng := rand.New(rand.NewSource(seed))
	if k < 1 {
		k = 1
	}
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "read v%d;\n", i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "v%d := v%d + %d;\n", rng.Intn(k), rng.Intn(k), rng.Intn(9))
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "print v%d;\n", i)
	}
	return parser.MustParse(b.String())
}

// DiamondLadder returns the def-use blow-up family of experiment E10: k
// if-then-else diamonds over v variables. Each diamond conditionally
// redefines every variable, and every variable is used after every diamond,
// so def-use chain counts grow quadratically in k while SSA and DFG sizes
// stay linear.
func DiamondLadder(k, v int, seed int64) *ast.Program {
	if v < 1 {
		v = 1
	}
	var b strings.Builder
	b.WriteString("read p;\n")
	for j := 0; j < v; j++ {
		fmt.Fprintf(&b, "read x%d;\n", j)
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "if (p == %d) {\n", i)
		for j := 0; j < v; j++ {
			fmt.Fprintf(&b, "  x%d := x%d + %d;\n", j, j, i+1)
		}
		b.WriteString("}\n")
		for j := 0; j < v; j++ {
			fmt.Fprintf(&b, "print x%d;\n", j)
		}
	}
	return parser.MustParse(b.String())
}

// LoopNest returns depth-nested bounded loops each containing width simple
// assignments; used for region and SSA benches.
func LoopNest(depth, width int, seed int64) *ast.Program {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("read a;\n")
	var open func(d int)
	open = func(d int) {
		if d == 0 {
			for i := 0; i < width; i++ {
				fmt.Fprintf(&b, "a := a + %d;\n", rng.Intn(9))
			}
			return
		}
		fmt.Fprintf(&b, "i%d := 0;\nwhile (i%d < 3) {\n", d, d)
		open(d - 1)
		fmt.Fprintf(&b, "i%d := i%d + 1;\n}\n", d, d)
	}
	open(depth)
	b.WriteString("print a;\n")
	return parser.MustParse(b.String())
}

// WideSwitch returns the constant-propagation V-sweep family of experiment
// E4: v variables assigned constants up front, a chain of n conditionals
// that shuffle unrelated variables, and uses of every variable at the end.
// The CFG algorithm must drag v-wide vectors through the whole chain; the
// DFG algorithm touches each dependence once.
func WideSwitch(n, v int, seed int64) *ast.Program {
	rng := rand.New(rand.NewSource(seed))
	if v < 2 {
		v = 2
	}
	var b strings.Builder
	b.WriteString("read p;\n")
	for j := 0; j < v; j++ {
		fmt.Fprintf(&b, "x%d := %d;\n", j, j%7)
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(v)
		fmt.Fprintf(&b, "if (p == %d) { y := x%d + 1; } else { y := x%d + 2; }\n", i, j, j)
	}
	for j := 0; j < v; j++ {
		fmt.Fprintf(&b, "print x%d;\n", j)
	}
	b.WriteString("print y;\n")
	return parser.MustParse(b.String())
}

// Wide returns a breadth-heavy structured program of roughly n statements:
// a flat fan of sibling single-entry single-exit blocks at the top level,
// each a small if-diamond plus a bounded loop over its own variable, with
// nesting never deeper than one level. The program structure tree is wide
// and shallow and the variable set grows with the sibling count, which is
// exactly the shape the region-parallel DFG builder and word-partitioned
// solvers distribute best: one independent unit of work per sibling. The
// complement of LoopNest (deep, narrow) in the scaling experiments.
func Wide(n int, seed int64) *ast.Program {
	rng := rand.New(rand.NewSource(seed))
	// Each sibling block below contributes ~8 statements.
	siblings := n / 8
	if siblings < 1 {
		siblings = 1
	}
	var b strings.Builder
	b.WriteString("read p;\ns := 0;\n")
	for i := 0; i < siblings; i++ {
		fmt.Fprintf(&b, "w%d := %d;\n", i, rng.Intn(9))
		fmt.Fprintf(&b, "if (p > %d) { w%d := w%d + %d; } else { w%d := w%d - %d; }\n",
			i, i, i, 1+rng.Intn(5), i, i, 1+rng.Intn(5))
		fmt.Fprintf(&b, "k%d := 0;\n", i)
		fmt.Fprintf(&b, "while (k%d < 2) { w%d := w%d * 2 + 1; k%d := k%d + 1; }\n", i, i, i, i, i)
		fmt.Fprintf(&b, "s := s + w%d;\n", i)
	}
	b.WriteString("print s;\n")
	return parser.MustParse(b.String())
}

// GotoMess returns an unstructured program with n guarded backward jumps
// and forward jumps, exercising irreducible control flow. All jumps are
// bounded by counters so the program terminates.
func GotoMess(n int, seed int64) *ast.Program {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("read a;\ng := 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "label L%d:\n", i)
		fmt.Fprintf(&b, "a := a + %d;\n", rng.Intn(5))
		if i > 0 && rng.Float64() < 0.5 {
			// guarded backward jump
			back := rng.Intn(i)
			fmt.Fprintf(&b, "g := g + 1;\nif (g < %d) { goto L%d; }\n", 2+rng.Intn(3), back)
		}
		if i+2 < n && rng.Float64() < 0.3 {
			// forward jump skipping the next label
			fmt.Fprintf(&b, "if (a == %d) { goto L%d; }\n", rng.Intn(50), i+2)
		}
	}
	b.WriteString("print a;\nprint g;\n")
	return parser.MustParse(b.String())
}

// Irreducible returns a goto-heavy program of n units, each a loop with two
// entry points — the classic irreducible shape no amount of node splitting
// avoidance can reduce. Each unit is
//
//	gI := 0;
//	if (cond) { goto B_I; }   // entry 1: jumps into the loop's middle
//	label A_I:                // entry 2: fallthrough, also the back-edge target
//	  ...
//	label B_I:
//	  gI := gI + 1;
//	  if (gI < bound) { goto A_I; }
//
// so the cycle {A_I..B_I} is entered both at A_I and at B_I from outside.
// The bytecode frontend compiles each unit to a CFG whose loop has two
// external entries, which is what the cycle-equivalence and region
// machinery must survive; a T1/T2 reduction test pins the irreducibility.
// Loops are counter-bounded, so every program terminates.
func Irreducible(n int, seed int64) *ast.Program {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("read a;\n")
	for i := 0; i < n; i++ {
		bound := 2 + rng.Intn(3)
		fmt.Fprintf(&b, "g%d := 0;\n", i)
		fmt.Fprintf(&b, "if (a %% %d == %d) { goto B%d; }\n", 2+rng.Intn(3), rng.Intn(2), i)
		fmt.Fprintf(&b, "label A%d:\n", i)
		fmt.Fprintf(&b, "a := a + %d;\n", 1+rng.Intn(4))
		fmt.Fprintf(&b, "label B%d:\n", i)
		fmt.Fprintf(&b, "g%d := g%d + 1;\n", i, i)
		fmt.Fprintf(&b, "a := a - %d;\n", rng.Intn(3))
		fmt.Fprintf(&b, "if (g%d < %d) { goto A%d; }\n", i, bound, i)
		fmt.Fprintf(&b, "print a;\nprint g%d;\n", i)
	}
	b.WriteString("print a;\n")
	return parser.MustParse(b.String())
}

// Redundant returns a program of n units, each planting a genuine partial
// redundancy: one that EPR removes for a strict saving. It is the positive
// control for the transformation oracles, since the random families rarely
// contain one. The units are
//
//   - straight-line CSE: an expression computed twice;
//   - if-shaped PRE: computed on one arm of a conditional and again after
//     the merge;
//   - loop invariant: computed inside a do-while (goto) loop that never
//     assigns its operands;
//   - nested chain: a 3 to 5 deep expression computed twice, which EPR
//     removes one level per round.
//
// Now and then a unit reassigns an operand between the two computations,
// which cancels its redundancy; EPR must leave those alone. Loops are
// counter-bounded, so every program terminates.
func Redundant(n int, seed int64) *ast.Program {
	rng := rand.New(rand.NewSource(seed))
	const ins = 4
	var b strings.Builder
	b.WriteString("read p;\n")
	for j := 0; j < ins; j++ {
		fmt.Fprintf(&b, "read r%d;\n", j)
	}
	ops := []string{"+", "-", "*"}
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth == 0 {
			return fmt.Sprintf("r%d", rng.Intn(ins))
		}
		return fmt.Sprintf("(%s %s r%d)", expr(depth-1), ops[rng.Intn(len(ops))], rng.Intn(ins))
	}
	maybeKill := func() {
		if rng.Intn(5) == 0 {
			r := rng.Intn(ins)
			fmt.Fprintf(&b, "r%d := r%d + %d;\n", r, r, 1+rng.Intn(3))
		}
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			e := expr(1)
			fmt.Fprintf(&b, "x%d := %s;\n", i, e)
			maybeKill()
			fmt.Fprintf(&b, "y%d := %s + %d;\n", i, e, rng.Intn(9))
		case 1:
			e := expr(1)
			fmt.Fprintf(&b, "if (p > %d) { x%d := %s; } else { x%d := %d; }\n", rng.Intn(5), i, e, i, rng.Intn(9))
			maybeKill()
			fmt.Fprintf(&b, "y%d := %s;\n", i, e)
		case 2:
			fmt.Fprintf(&b, "x%d := 0;\nk%d := 0;\nlabel L%d:\n", i, i, i)
			fmt.Fprintf(&b, "x%d := x%d + %s;\n", i, i, expr(1))
			fmt.Fprintf(&b, "k%d := k%d + 1;\nif (k%d < %d) { goto L%d; }\n", i, i, i, 2+rng.Intn(3), i)
			fmt.Fprintf(&b, "y%d := k%d;\n", i, i)
		default:
			e := expr(3 + rng.Intn(3))
			fmt.Fprintf(&b, "x%d := %s;\n", i, e)
			maybeKill()
			fmt.Fprintf(&b, "y%d := %s;\n", i, e)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "print x%d;\nprint y%d;\n", i, i)
	}
	for j := 0; j < ins; j++ {
		fmt.Fprintf(&b, "print r%d;\n", j)
	}
	return parser.MustParse(b.String())
}

// NestedSum returns a program computing the depth-deep left-nested sum
// (((a + v0) + v1) + ...) twice. Every level is a genuine redundancy, but
// EPR can only see level i+1 once level i has been replaced by its
// temporary, so it removes one level per round and needs depth+1 rounds
// to converge: a depth at or above the transformation's round cap leaves
// work undone.
func NestedSum(depth int) *ast.Program {
	var b strings.Builder
	b.WriteString("read a;\n")
	sum := "a"
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "read v%d;\n", i)
		sum = fmt.Sprintf("(%s + v%d)", sum, i)
	}
	fmt.Fprintf(&b, "x := %s;\ny := %s;\nprint x;\nprint y;\n", sum, sum)
	return parser.MustParse(b.String())
}

// Mixed returns a deterministic random structured program of roughly n
// statements (the usual entry point for differential tests).
func Mixed(n int, seed int64) *ast.Program {
	return Generate(DefaultConfig(n, seed))
}
