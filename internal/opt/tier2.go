// Tier-2 optimization passes for the tier-1 dynamic compiler (internal/jit).
//
// These passes are *safety-preserving* in the paper's sense (§4.2: the JIT
// "optimizes based on safe semantics [and] cannot optimize away invalid
// accesses"): they may rewrite how a value is computed, move a pure
// computation earlier, or merge adjacent checks — but a check can never
// disappear, and a faulting access must still fault at the same instruction
// with the same diagnostic. The legality rule, enforced by the full-corpus
// tier-parity suite, is:
//
//	checks may move earlier or merge, never disappear.
//
// Because the execution governor charges fuel per instruction in tier 0, the
// passes also maintain a weight account (Weights): every tier-0 instruction
// carries weight 1, and any transformation that removes an instruction folds
// its weight into the next instruction that still executes. The compiled
// block's cost is the sum of its weights, so Stats.Steps — and the exact
// step at which Config.MaxSteps fires — stay byte-identical across tiers
// even when tier 2 has restructured the code.
package opt

import (
	"repro/internal/ir"
)

// Weights carries, per block and per instruction, the number of tier-0
// interpreter steps the instruction accounts for. A freshly built function
// has weight 1 everywhere. Synthesized instructions (loop preheaders) carry
// weight 0: the interpreter never executes them.
//
// Folding direction: tier 0 charges a step *before* executing an
// instruction, so when an instruction is deleted its weight must attach to
// the next surviving instruction in the block (or the terminator). That way
// a fault at any surviving instruction refunds exactly the weights of the
// instructions that had not yet started in tier-0 order.
type Weights [][]int64

// NewWeights builds the identity weight account for f: one step per
// instruction, mirroring the tier-0 interpreter.
func NewWeights(f *ir.Func) Weights {
	w := make(Weights, len(f.Blocks))
	for i, b := range f.Blocks {
		bw := make([]int64, len(b.Instrs))
		for j := range bw {
			bw[j] = 1
		}
		w[i] = bw
	}
	return w
}

// isMoveCast reports whether an instruction is a pure register/constant move
// in the canonical value domain: bitcasts, sign extensions (register values
// are already stored sign-extended to 64 bits, so SExt is the identity — the
// same equivalence the tier-1 lowering has always used), and zero extensions
// from i1 (an i1 value is 0 or 1; zero-extending it changes nothing).
func isMoveCast(in *ir.Instr) bool {
	// A cast carrying a declared C type is a *checked* cast — the engines
	// validate it against the pointee's effective type — never a pure move.
	if in.Op != ir.OpCast || in.Dst < 0 || in.CType != "" {
		return false
	}
	switch in.Cast {
	case ir.Bitcast, ir.SExt:
		return true
	case ir.ZExt:
		if it, ok := in.Ty.(*ir.IntType); ok && it.Bits == 1 {
			return true
		}
	}
	return false
}

// CopyPropagate performs block-local copy propagation on the mutable SIR
// registers: uses of a register that currently holds a copy of another
// register (or a constant) read the source directly. It also normalizes
// identity casts (SExt, ZExt-from-i1) into plain moves and rewrites the
// frontend's bool-materialization chain (cmp → zext → cmp ne 0) into moves,
// so the later sweep can retire the dead intermediates.
//
// The pass only rewrites operands to value-identical sources, so every
// check still sees the same pointer and the same index: a faulting access
// faults at the same instruction with the same diagnostic.
func CopyPropagate(f *ir.Func) {
	for _, b := range f.Blocks {
		known := map[int]ir.Operand{} // reg -> current value source (reg or const)
		isBool := map[int]bool{}      // reg -> definitely holds 0/1
		resolve := func(o ir.Operand) ir.Operand {
			if o.Kind == ir.OperReg {
				if c, ok := known[o.Reg]; ok {
					c.Ty = o.Ty
					return c
				}
			}
			return o
		}
		// kill invalidates everything that depends on register r.
		kill := func(r int) {
			delete(known, r)
			for k, v := range known {
				if v.Kind == ir.OperReg && v.Reg == r {
					delete(known, k)
				}
			}
			delete(isBool, r)
		}
		boolSource := func(o ir.Operand) bool {
			switch o.Kind {
			case ir.OperReg:
				return isBool[o.Reg]
			case ir.OperConstInt:
				return o.Int == 0 || o.Int == 1
			}
			return false
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			in.A = resolve(in.A)
			in.B = resolve(in.B)
			in.C = resolve(in.C)
			in.Addr = resolve(in.Addr)
			in.Callee = resolve(in.Callee)
			for k := range in.Args {
				in.Args[k] = resolve(in.Args[k])
			}

			// Normalize identity casts to moves so they participate in copy
			// propagation and dead-move sweeping.
			if isMoveCast(in) && in.Cast != ir.Bitcast {
				makeMove(in, in.A, in.Ty2)
			}
			// Bool-chain peephole: `cmp ne (0/1-valued x), 0` is x itself.
			if in.Op == ir.OpCmp && in.Pred == ir.Ne &&
				in.B.Kind == ir.OperConstInt && in.B.Int == 0 &&
				!ir.IsPtr(in.Ty) && boolSource(in.A) {
				makeMove(in, in.A, ir.I1)
			}

			if in.Dst < 0 {
				continue
			}
			// Compute source booleanness before the kill: a self-move keeps
			// its own (pre-redefinition) classification.
			srcBool := in.Op == ir.OpCast && in.Cast == ir.Bitcast && boolSource(in.A)
			kill(in.Dst)
			switch {
			case in.Op == ir.OpCast && in.Cast == ir.Bitcast && in.CType == "" &&
				(in.A.Kind == ir.OperReg || in.A.Kind == ir.OperConstInt || in.A.Kind == ir.OperConstFloat):
				if !(in.A.Kind == ir.OperReg && in.A.Reg == in.Dst) {
					known[in.Dst] = in.A
				}
				if srcBool {
					isBool[in.Dst] = true
				}
			case in.Op == ir.OpCmp:
				isBool[in.Dst] = true
			}
		}
	}
}

// CSEAddresses merges block-local redundant address computations: two GEPs
// with the same base, stride, and index (none redefined in between) compute
// the same pointer, so the second becomes a move of the first. Address
// *computation* is pure in the managed model — pointer arithmetic never
// traps, only dereferencing does (paper Fig. 6) — so merging it cannot move
// or mask a check; it just lets consecutive accesses share one base
// register, which is what makes the lowering's coalesced range checks
// (internal/jit) match more often.
func CSEAddresses(f *ir.Func) {
	type gepKey struct {
		addrKind ir.OperandKind
		addrReg  int
		addrSym  string
		stride   int64
		idxKind  ir.OperandKind
		idxReg   int
		idxInt   int64
	}
	keyReads := func(k gepKey, r int) bool {
		return (k.addrKind == ir.OperReg && k.addrReg == r) ||
			(k.idxKind == ir.OperReg && k.idxReg == r)
	}
	for _, b := range f.Blocks {
		avail := map[gepKey]int{} // key -> register holding the result
		invalidate := func(r int) {
			for k, v := range avail {
				if v == r || keyReads(k, r) {
					delete(avail, k)
				}
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpGEP && in.Dst >= 0 &&
				(in.Addr.Kind == ir.OperReg || in.Addr.Kind == ir.OperGlobal) &&
				(in.A.Kind == ir.OperReg || in.A.Kind == ir.OperConstInt) {
				k := gepKey{
					addrKind: in.Addr.Kind, addrReg: in.Addr.Reg, addrSym: in.Addr.Sym,
					stride:  in.Stride,
					idxKind: in.A.Kind, idxReg: in.A.Reg, idxInt: in.A.Int,
				}
				if prev, ok := avail[k]; ok && prev != in.Dst {
					makeMove(in, ir.Reg(prev, ir.BytePtr), ir.BytePtr)
					invalidate(in.Dst)
					continue
				}
				invalidate(in.Dst)
				if !keyReads(k, in.Dst) { // r = gep r, …: result key is stale
					avail[k] = in.Dst
				}
				continue
			}
			if in.Dst >= 0 {
				invalidate(in.Dst)
			}
		}
	}
}

// SweepDeadMoves removes register moves (bitcasts) whose destination is
// never read, folding each removed instruction's weight into the next
// surviving instruction so tier-1 fuel accounting stays byte-identical to
// tier 0. Moves are pure by construction, so removing an unread one cannot
// erase a check — this is the only tier-2 pass that deletes instructions,
// and it only ever deletes moves.
func SweepDeadMoves(f *ir.Func, w Weights) {
	uses := regUses(f)
	for bi, b := range f.Blocks {
		bw := w[bi]
		dst := b.Instrs[:0]
		dw := bw[:0]
		var carry int64
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == ir.OpCast && in.Cast == ir.Bitcast && in.CType == "" && in.Dst >= 0 && in.Dst < len(uses) &&
				uses[in.Dst] == 0 && len(b.Instrs) > 1 {
				// Weight attaches to the next surviving instruction; the
				// terminator is never a move, so a carrier always exists.
				carry += bw[i]
				continue
			}
			dst = append(dst, in)
			dw = append(dw, bw[i]+carry)
			carry = 0
		}
		b.Instrs = dst
		w[bi] = dw
	}
}

// HoistLoopInvariants moves loop-invariant *computations* — never checks,
// never memory accesses — into a synthesized preheader. Only pure,
// non-trapping operations qualify: address computation (GEP), non-dividing
// arithmetic, comparisons, casts, and selects whose operands are constants
// or registers never defined inside the loop.
//
// The hoisted instruction computes into a fresh register in the preheader
// (weight 0 — tier 0 never executes that block), and the original
// instruction becomes a move from that register carrying its original
// weight, so the loop charges the same fuel on every iteration and every
// check that *consumes* the hoisted value still runs, in place, on the same
// values. This is the "hoist the computation feeding a check, never the
// check" half of the tier-2 legality rule: a faulting access still faults
// on its own iteration, at its own line, with its own diagnostic.
//
// It returns the weight account re-synchronized with the (possibly grown)
// block list.
func HoistLoopInvariants(f *ir.Func, w Weights) Weights {
	// Loop discovery is shared with the tier-1 OSR compiler (Loops): both
	// must agree on what a single-header loop is and which block heads it.
	for _, loop := range Loops(f) {
		comp := loop.Blocks
		// Never the entry block: its implicit incoming edge cannot be
		// retargeted to a preheader.
		header := loop.Header
		if header <= 0 {
			continue
		}
		inLoop := map[int]bool{}
		for _, b := range comp {
			inLoop[b] = true
		}

		// Registers defined anywhere inside the loop are not invariant.
		defined := map[int]bool{}
		for _, bi := range comp {
			for i := range f.Blocks[bi].Instrs {
				if d := f.Blocks[bi].Instrs[i].Dst; d >= 0 {
					defined[d] = true
				}
			}
		}
		invariant := func(o ir.Operand) bool {
			if o.Kind == ir.OperReg {
				return !defined[o.Reg]
			}
			return true
		}

		var hoisted []ir.Instr
		const maxHoist = 32
		for _, bi := range comp {
			b := f.Blocks[bi]
			for i := 0; i < len(b.Instrs)-1 && len(hoisted) < maxHoist; i++ {
				in := &b.Instrs[i]
				if in.Dst < 0 {
					continue
				}
				ok := false
				switch in.Op {
				case ir.OpGEP:
					ok = invariant(in.Addr) && invariant(in.A)
				case ir.OpBin:
					switch in.Bin {
					case ir.SDiv, ir.UDiv, ir.SRem, ir.URem:
						// Trapping: a divide-by-zero must fire inside the
						// loop, on the iteration that executes it.
					default:
						ok = invariant(in.A) && invariant(in.B)
					}
				case ir.OpCmp:
					ok = invariant(in.A) && invariant(in.B)
				case ir.OpCast:
					// Checked casts are checks, not computations: they must
					// fire on their own iteration for the exact diagnostic.
					ok = in.CType == "" && invariant(in.A)
				case ir.OpSelect:
					ok = invariant(in.A) && invariant(in.B) && invariant(in.C)
				}
				if !ok {
					continue
				}
				vr := f.NewReg()
				hi := *in
				hi.Dst = vr
				hoisted = append(hoisted, hi)
				var mvTy ir.Type = ir.I64
				switch {
				case in.Op == ir.OpGEP:
					mvTy = ir.BytePtr
				case in.Op == ir.OpCmp:
					mvTy = ir.I1
				case in.Op == ir.OpCast && in.Ty2 != nil:
					mvTy = in.Ty2
				case in.Ty != nil:
					mvTy = in.Ty
				}
				makeMove(in, ir.Reg(vr, mvTy), mvTy)
			}
		}
		if len(hoisted) == 0 {
			continue
		}

		// Synthesize the preheader: hoisted computations then a jump to the
		// header, all weight 0 (tier 0 never executes this block).
		ph := &ir.Block{Name: "preheader." + f.Blocks[header].Name}
		ph.Instrs = append(ph.Instrs, hoisted...)
		ph.Instrs = append(ph.Instrs, ir.Instr{Op: ir.OpBr, Dst: -1, Blk0: header})
		phIdx := len(f.Blocks)
		f.Blocks = append(f.Blocks, ph)

		// Retarget every loop entry edge (from outside the SCC) to the
		// preheader. Back edges keep jumping straight to the header.
		for bi := 0; bi < phIdx; bi++ {
			if inLoop[bi] {
				continue
			}
			t := f.Blocks[bi].Terminator()
			switch t.Op {
			case ir.OpBr:
				if t.Blk0 == header {
					t.Blk0 = phIdx
				}
			case ir.OpCondBr:
				if t.Blk0 == header {
					t.Blk0 = phIdx
				}
				if t.Blk1 == header {
					t.Blk1 = phIdx
				}
			case ir.OpSwitch:
				if t.Blk0 == header {
					t.Blk0 = phIdx
				}
				for ci := range t.Cases {
					if t.Cases[ci].Blk == header {
						t.Cases[ci].Blk = phIdx
					}
				}
			}
		}
	}
	// Extend the weight account to cover the synthesized blocks.
	for len(w) < len(f.Blocks) {
		w = append(w, make([]int64, len(f.Blocks[len(w)].Instrs)))
	}
	return w
}
