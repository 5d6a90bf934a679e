package analysis

import (
	"gles2gpgpu/internal/dataflow"
	"gles2gpgpu/internal/shader"
)

// The verified optimisation passes: copy/constant propagation and
// iterative dead-code elimination.
//
// Both passes observe the OptProgram contract (see internal/shader/opt.go):
// instruction shapes, cycle charges and texture-fetch counts are
// untouched, so every simulated figure is bit-identical with passes on or
// off — only the host does less work. Soundness rests on three arguments:
//
//   - Constant propagation rewrites an operand only when SCCP proved every
//     lane it reads carries one specific 32-bit pattern on every feasible
//     path, and the replacement value was computed by shader.EvalInst —
//     the runtime VM itself — so the substituted bits are the bits the
//     original read would have produced.
//   - Copy propagation bypasses only MOVs from read-only files (uniforms,
//     inputs, the constant pool). The unique reaching definition guarantees
//     the MOV executes on every path to the use; read-only sources cannot
//     be clobbered between the MOV and the use, so reading through the MOV
//     is indistinguishable from reading its source.
//   - A write is marked dead only when no feasible path reaches a read of
//     any component it writes before that component is overwritten.
//     Skipping it therefore changes no observable value; and because any
//     read that could observe a stale register would have made the write
//     live, skipped writes cannot leak state between invocations either.
//
// The differential tests complete the verification empirically: bit-exact
// framebuffer bytes and identical Cycles/TexFetches/Discarded across
// {per-fragment interpreter, lanes} × {passes on, off} × worker counts.

// Optimize runs the pass pipeline on p and returns the optimised execution
// form, or nil for an empty program. The caller attaches the result with
// p.SetOptimized.
func Optimize(p *shader.Program) *shader.OptProgram {
	if len(p.Insts) == 0 {
		return nil
	}
	cfg := BuildCFG(p)
	sccp := SolveSCCP(cfg)
	du := SolveDefUse(cfg)

	o := &shader.OptProgram{
		Insts:  append([]shader.Inst(nil), p.Insts...),
		Consts: append([][4]float32(nil), p.Consts...),
		Dead:   make([]bool, len(p.Insts)),
	}
	intern := make(map[[4]float32]uint16, len(o.Consts))
	for i, c := range o.Consts {
		if _, ok := intern[c]; !ok {
			intern[c] = uint16(i)
		}
	}
	internConst := func(v shader.Vec4) uint16 {
		key := [4]float32(v)
		if r, ok := intern[key]; ok {
			return r
		}
		r := uint16(len(o.Consts))
		o.Consts = append(o.Consts, key)
		intern[key] = r
		return r
	}

	// Pass 1: constant and copy propagation, per source operand.
	for i := range o.Insts {
		if !sccp.Reachable[i] {
			continue
		}
		in := &o.Insts[i]
		la, lb, lc := in.SrcLanes()
		for k, lanes := range [3]uint8{la, lb, lc} {
			if lanes == 0 {
				continue
			}
			s := srcOperand(in, k)
			if oc := sccp.Operand[i][k]; oc.OK && s.File != shader.FileConst {
				*s = shader.Src{File: shader.FileConst, Reg: internConst(oc.V), Swiz: shader.IdentitySwiz}
				o.FoldedConsts++
				continue
			}
			d := du.OperandDef(i, k)
			if d < 0 {
				continue
			}
			def := &p.Insts[d]
			if def.Op != shader.OpMOV || !readOnlyFile(def.A.File) {
				continue
			}
			// The MOV wrote every lane we read (it is their definition);
			// compose its swizzle and negation into the use.
			ns := def.A
			for l := 0; l < 4; l++ {
				ns.Swiz[l] = def.A.Swiz[s.Swiz[l]&3] & 3
			}
			ns.Neg = s.Neg != def.A.Neg
			*s = ns
			o.PropagatedSrcs++
		}
	}

	// Pass 2: iterative dead-code elimination over the rewritten operands.
	// Liveness is recomputed after each marking round because removing a
	// dead instruction's uses can kill the instructions feeding it.
	bits := 4 * (p.NumTemps + p.NumOutputs)
	bitOf := func(file shader.RegFile, reg uint16, cc int) int {
		if file == shader.FileTemp {
			return int(reg)*4 + cc
		}
		return (p.NumTemps+int(reg))*4 + cc
	}
	outputBits := dataflow.NewBitSet(bits)
	for r := 0; r < p.NumOutputs; r++ {
		for cc := 0; cc < 4; cc++ {
			outputBits.Set(bitOf(shader.FileOutput, uint16(r), cc))
		}
	}
	n := len(o.Insts)
	isExit := func(i int) bool {
		if o.Insts[i].Op == shader.OpRET {
			return true
		}
		return i == n-1 && o.Insts[i].Op != shader.OpBR
	}
	use := make([]dataflow.BitSet, n)
	def := make([]dataflow.BitSet, n)
	for i := range o.Insts {
		use[i] = dataflow.NewBitSet(bits)
		def[i] = dataflow.NewBitSet(bits)
		in := &o.Insts[i]
		la, lb, lc := in.SrcLanes()
		for k, lanes := range [3]uint8{la, lb, lc} {
			s := *srcOperand(in, k)
			if s.File != shader.FileTemp && s.File != shader.FileOutput {
				continue
			}
			for l := 0; l < 4; l++ {
				if lanes&(1<<uint(l)) != 0 {
					use[i].Set(bitOf(s.File, s.Reg, int(s.Swiz[l]&3)))
				}
			}
		}
		if mask := in.WriteMask(); mask != 0 &&
			(in.Dst.File == shader.FileTemp || in.Dst.File == shader.FileOutput) {
			for cc := 0; cc < 4; cc++ {
				if mask&(1<<uint(cc)) != 0 {
					def[i].Set(bitOf(in.Dst.File, in.Dst.Reg, cc))
				}
			}
		}
	}
	for {
		prob := &dataflow.Problem{
			N:     n,
			Bits:  bits,
			Succs: p.InstSuccs,
			Transfer: func(i int, out, in dataflow.BitSet) {
				in.CopyFrom(out)
				if isExit(i) {
					in.Or(outputBits)
				}
				for w := range in {
					in[w] &^= def[i][w]
				}
				if !o.Dead[i] {
					in.Or(use[i])
				}
			},
		}
		liveOut := prob.Backward()
		changed := false
		for i := range o.Insts {
			if o.Dead[i] {
				continue
			}
			in := &o.Insts[i]
			mask := in.WriteMask()
			if mask == 0 || (in.Dst.File != shader.FileTemp && in.Dst.File != shader.FileOutput) {
				continue
			}
			anyLive := false
			for cc := 0; cc < 4; cc++ {
				if mask&(1<<uint(cc)) == 0 {
					continue
				}
				bit := bitOf(in.Dst.File, in.Dst.Reg, cc)
				// The solver's out-sets do not include the exit boundary
				// (it is folded into Transfer, which models the read as
				// happening after the exit instruction): an exit's own
				// output write is observable.
				if liveOut[i].Get(bit) || (isExit(i) && outputBits.Get(bit)) {
					anyLive = true
					break
				}
			}
			if !anyLive {
				o.Dead[i] = true
				o.DeadInsts++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return o
}

// srcOperand returns a pointer to operand k (0=A, 1=B, 2=C) of in.
func srcOperand(in *shader.Inst, k int) *shader.Src {
	switch k {
	case 0:
		return &in.A
	case 1:
		return &in.B
	default:
		return &in.C
	}
}

// readOnlyFile reports whether a register file cannot be written by the
// program (its contents are invariant for the whole invocation).
func readOnlyFile(f shader.RegFile) bool {
	switch f {
	case shader.FileUniform, shader.FileInput, shader.FileConst:
		return true
	}
	return false
}
