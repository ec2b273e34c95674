// Package bcfront recovers a control flow graph from stack bytecode by
// abstract interpretation, then decompiles the recovered blocks into the
// repository's CFG representation (internal/cfg) so the regions→CDG→DFG→
// constprop/EPR pipeline runs on machine-shaped control flow unchanged.
//
// Jump targets in the ISA are dynamic — JUMP/JUMPI pop them off the operand
// stack — so block discovery is a fixpoint: a worklist propagates abstract
// stacks whose slots range over the flat lattice {⊥, Const(v), ⊤} (the
// AbsConst/AbsState construction of EVM data-flow CFG builders). A jump
// whose abstract target is a constant resolves to an edge; a genuinely
// unresolvable ⊤ target is a typed error, as is a stack-depth mismatch at a
// join (the compiler keeps the stack empty across every jump, so compiled
// programs never hit either). Constant folding inside the lattice uses
// interp.ApplyBinary/ApplyUnary — the same semantics every other evaluator
// in the repository shares; an abstract fold that would trap degrades to ⊤
// and defers the trap to runtime.
package bcfront

import (
	"fmt"

	"dfg/internal/bytecode"
	"dfg/internal/dataflow"
	"dfg/internal/interp"
	"dfg/internal/lang/token"
)

// ErrKind classifies recovery failures.
type ErrKind string

// The failure classes.
const (
	ErrUnresolvable ErrKind = "unresolvable" // jump target is ⊤
	ErrBadTarget    ErrKind = "bad-target"   // constant target is no instruction boundary / not an integer
	ErrUnderflow    ErrKind = "underflow"    // abstract stack underflow (dup/swap depth included)
	ErrDepthClash   ErrKind = "depth-clash"  // join of stacks with different depths
	ErrCFG          ErrKind = "cfg"          // recovered graph violates CFG invariants (e.g. end unreachable)
)

// RecoverError is the typed recovery failure. Offset is the byte offset of
// the offending instruction (-1 for whole-graph failures); OpName is its
// mnemonic ("cfg" for whole-graph failures).
type RecoverError struct {
	Offset int
	OpName string
	Kind   ErrKind
	Reason string
}

// Error implements error.
func (e *RecoverError) Error() string { return "bcfront: " + e.Diagnostic() }

// Diagnostic renders the one-line "offset: opcode: reason" form that
// cmd/dfg prints, mirroring bytecode.(*Error).Diagnostic.
func (e *RecoverError) Diagnostic() string {
	off := "----"
	if e.Offset >= 0 {
		off = fmt.Sprintf("%04d", e.Offset)
	}
	return fmt.Sprintf("%s: %s: %s", off, e.OpName, e.Reason)
}

func recErr(in bytecode.Instr, kind ErrKind, format string, args ...any) *RecoverError {
	return &RecoverError{Offset: in.Offset, OpName: in.Op.String(), Kind: kind, Reason: fmt.Sprintf(format, args...)}
}

// absStack is an abstract operand stack; index 0 is the bottom. Its slots
// range over the constant-propagation lattice dataflow.ConstVal.
type absStack []dataflow.ConstVal

// clone copies s. The copy is non-nil even when empty: nil states mean
// "unreached" throughout recovery, and an empty stack is the common reached
// state (the compiler keeps the stack empty across every jump).
func (s absStack) clone() absStack {
	out := make(absStack, len(s))
	copy(out, s)
	return out
}

// join merges src into dst slotwise, reporting whether dst changed. The
// depths must agree: a program point reachable with two different stack
// depths has no well-defined block signature.
func join(dst, src absStack, at bytecode.Instr) (absStack, bool, error) {
	if len(dst) != len(src) {
		return nil, false, recErr(at, ErrDepthClash,
			"stack depth mismatch at join: %d vs %d", len(dst), len(src))
	}
	changed := false
	for i := range dst {
		m := dst[i].Join(src[i])
		if m != dst[i] {
			dst[i] = m
			changed = true
		}
	}
	return dst, changed, nil
}

// endTarget is the successor sentinel for "halt" (including jumps to
// len(code), the explicit form of running off the end).
const endTarget = -1

// flow is the outcome of abstractly executing one instruction.
type flow struct {
	out absStack
	// succs lists successor instruction indices (endTarget for halt). For
	// JUMPI the order is [target, fallthrough].
	succs []int
	// target is the resolved dynamic target byte offset (-1 if the
	// instruction has none); jumpi's fallthrough is implicit.
	target int
}

// absint holds the fixpoint state over one decoded program.
type absint struct {
	p      *bytecode.Program
	instrs []bytecode.Instr
	at     map[int]int // byte offset → instruction index
	states []absStack  // entry state per instruction; nil = unreached (⊥)
	visits int
}

func newAbsint(p *bytecode.Program) (*absint, error) {
	instrs, err := p.Instrs()
	if err != nil {
		return nil, err
	}
	a := &absint{p: p, instrs: instrs, at: make(map[int]int, len(instrs)), states: make([]absStack, len(instrs))}
	for i, in := range instrs {
		a.at[in.Offset] = i
	}
	return a, nil
}

// resolve maps an abstract jump-target slot to a successor instruction
// index.
func (a *absint) resolve(in bytecode.Instr, tgt dataflow.ConstVal) (int, error) {
	switch tgt.Kind {
	case dataflow.Const:
		if tgt.Val.B {
			return 0, recErr(in, ErrBadTarget, "jump target is boolean %s", tgt.Val)
		}
		if tgt.Val.I == int64(len(a.p.Code)) {
			return endTarget, nil
		}
		idx, ok := a.at[int(tgt.Val.I)]
		if !ok || tgt.Val.I < 0 {
			return 0, recErr(in, ErrBadTarget, "jump target %d is not an instruction boundary", tgt.Val.I)
		}
		return idx, nil
	default:
		return 0, recErr(in, ErrUnresolvable, "unresolvable dynamic jump target (abstract stack top is ⊤)")
	}
}

// step abstractly executes instruction i on entry state in (not mutated).
func (a *absint) step(i int, in absStack) (flow, error) {
	ins := a.instrs[i]
	s := in.clone()
	f := flow{target: -1}
	pop := func() (dataflow.ConstVal, bool) {
		if len(s) == 0 {
			return dataflow.Bottom, false
		}
		v := s[len(s)-1]
		s = s[:len(s)-1]
		return v, true
	}
	underflow := func() (flow, error) { return f, recErr(ins, ErrUnderflow, "stack underflow (depth %d)", len(s)) }

	fall := i + 1
	fallSucc := func() []int {
		if fall >= len(a.instrs) {
			return []int{endTarget} // running off the end halts
		}
		return []int{fall}
	}

	switch ins.Op {
	case bytecode.OpHalt:
		f.out = s
		return f, nil
	case bytecode.OpNop, bytecode.OpRead:
	case bytecode.OpPushI:
		s = append(s, dataflow.ConstOf(interp.IntVal(ins.Imm)))
	case bytecode.OpPushB:
		s = append(s, dataflow.ConstOf(interp.BoolVal(ins.Arg != 0)))
	case bytecode.OpPop, bytecode.OpStore, bytecode.OpPrint:
		if _, ok := pop(); !ok {
			return underflow()
		}
	case bytecode.OpDup:
		if ins.Arg > len(s) {
			return f, recErr(ins, ErrUnderflow, "dup %d on abstract stack of %d", ins.Arg, len(s))
		}
		s = append(s, s[len(s)-ins.Arg])
	case bytecode.OpSwap:
		if ins.Arg >= len(s) {
			return f, recErr(ins, ErrUnderflow, "swap %d on abstract stack of %d", ins.Arg, len(s))
		}
		x, y := len(s)-1, len(s)-1-ins.Arg
		s[x], s[y] = s[y], s[x]
	case bytecode.OpLoad:
		// Variables are not tracked by the abstract domain: a load is ⊤.
		s = append(s, dataflow.TopVal)
	case bytecode.OpJump:
		tgt, ok := pop()
		if !ok {
			return underflow()
		}
		idx, err := a.resolve(ins, tgt)
		if err != nil {
			return f, err
		}
		if tgt.Kind == dataflow.Const {
			f.target = int(tgt.Val.I)
		}
		f.out = s
		f.succs = []int{idx}
		return f, nil
	case bytecode.OpJumpI:
		tgt, ok1 := pop()
		_, ok2 := pop() // condition; its truth is a runtime matter
		if !ok1 || !ok2 {
			return underflow()
		}
		idx, err := a.resolve(ins, tgt)
		if err != nil {
			return f, err
		}
		if tgt.Kind == dataflow.Const {
			f.target = int(tgt.Val.I)
		}
		// Both arms stay successors even when the condition folds to a
		// constant: the source frontend keeps structurally-dead arms too
		// (a `while (true)` CFG still has its false edge), and pruning
		// here would make the two frontends' graphs diverge.
		f.out = s
		f.succs = append([]int{idx}, fallSucc()...)
		return f, nil
	case bytecode.OpNeg, bytecode.OpNot:
		x, ok := pop()
		if !ok {
			return underflow()
		}
		s = append(s, foldUnary(ins.Op, x))
	default:
		// All remaining opcodes are strict binary operators (the decoder
		// admits no others).
		y, ok1 := pop()
		x, ok2 := pop()
		if !ok1 || !ok2 {
			return underflow()
		}
		s = append(s, foldBinary(ins.Op, x, y))
	}
	f.out = s
	f.succs = fallSucc()
	return f, nil
}

// foldUnary folds a unary operator over the lattice; a fold that would trap
// is ⊤ (the trap is the runtime's business, not the CFG's).
func foldUnary(op bytecode.Op, x dataflow.ConstVal) dataflow.ConstVal {
	if x.Kind != dataflow.Const {
		return dataflow.TopVal
	}
	k := token.NOT
	if op == bytecode.OpNeg {
		k = token.MINUS
	}
	v, err := interp.ApplyUnary(k, x.Val)
	if err != nil {
		return dataflow.TopVal
	}
	return dataflow.ConstOf(v)
}

// foldBinary folds a strict binary operator (including strict and/or) over
// the lattice.
func foldBinary(op bytecode.Op, x, y dataflow.ConstVal) dataflow.ConstVal {
	if x.Kind != dataflow.Const || y.Kind != dataflow.Const {
		return dataflow.TopVal
	}
	if op == bytecode.OpAnd || op == bytecode.OpOr {
		if !x.Val.B || !y.Val.B {
			return dataflow.TopVal // would trap at runtime
		}
		if op == bytecode.OpAnd {
			return dataflow.ConstOf(interp.BoolVal(x.Val.Bool && y.Val.Bool))
		}
		return dataflow.ConstOf(interp.BoolVal(x.Val.Bool || y.Val.Bool))
	}
	k, ok := bytecode.BinaryToken(op)
	if !ok {
		return dataflow.TopVal
	}
	v, err := interp.ApplyBinary(k, x.Val, y.Val)
	if err != nil {
		return dataflow.TopVal
	}
	return dataflow.ConstOf(v)
}

// run drives the worklist to fixpoint. Termination: a slot only moves up
// the flat lattice (at most twice), join errors on depth changes, and only
// changed entry states re-enqueue.
func (a *absint) run() error {
	if len(a.instrs) == 0 {
		return nil
	}
	a.states[0] = absStack{}
	queue := []int{0}
	queued := make([]bool, len(a.instrs))
	queued[0] = true
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		queued[i] = false
		a.visits++
		f, err := a.step(i, a.states[i])
		if err != nil {
			return err
		}
		for _, succ := range f.succs {
			if succ == endTarget {
				continue
			}
			if a.states[succ] == nil {
				a.states[succ] = f.out.clone()
			} else {
				merged, changed, err := join(a.states[succ], f.out, a.instrs[succ])
				if err != nil {
					return err
				}
				a.states[succ] = merged
				if !changed {
					continue
				}
			}
			if !queued[succ] {
				queued[succ] = true
				queue = append(queue, succ)
			}
		}
	}
	return nil
}
