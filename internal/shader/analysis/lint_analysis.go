package analysis

import (
	"fmt"

	"gles2gpgpu/internal/shader"
)

// Lint rules driven by the uniformity, value-range and footprint lattices.
//
// These surface what the optimisation passes see, so a kernel author can
// tell WHY a program did or did not take a fast path: a branch the
// uniformity analysis proved uniform (every fragment in a draw takes the
// same arm), a discard that actually diverges, a clamp the range analysis
// proved dead, a sampler whose footprint the coherence cache cannot bound
// statically. The lane engine's eligibility verdict (lint.go) names the
// defeating instruction when a program falls back.

// lintUniformBranches flags reachable branches whose condition is proven
// uniform but not constant: every fragment of a draw takes the same arm,
// so the branch costs control flow without ever diverging — the guarded
// code could be hoisted to the CPU (a uniform) or split into two
// programs. SCCP-constant conditions are excluded; those are dead code,
// not draw-uniform code.
func lintUniformBranches(p *shader.Program, u *Uniformity, sccp *SCCP) []Finding {
	varying := make(map[int]bool, len(u.VaryingBranches))
	for _, i := range u.VaryingBranches {
		varying[i] = true
	}
	var fs []Finding
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op != shader.OpBRZ || !sccp.Reachable[i] || varying[i] {
			continue
		}
		if sccp.Operand[i][0].OK {
			continue
		}
		fs = append(fs, Finding{
			Code: "uniform-branch",
			Sev:  SevInfo,
			Pos:  in.SrcPos,
			Msg: "branch condition is uniform across every fragment of a draw; " +
				"the branch never diverges and could be hoisted out of the shader",
		})
	}
	return fs
}

// lintDivergentDiscards flags reachable discards that are fragment-
// dependent: the condition is varying, or the discard sits in a region
// controlled by a varying branch. Under masked-lane execution these are
// the points where lanes die individually; a draw-uniform discard (not
// flagged) kills or keeps the whole draw instead.
func lintDivergentDiscards(p *shader.Program, u *Uniformity, sccp *SCCP) []Finding {
	var fs []Finding
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op != shader.OpKIL || !sccp.Reachable[i] {
			continue
		}
		if !u.OperandVarying[i][0] && !u.Divergent[i] {
			continue
		}
		fs = append(fs, Finding{
			Code: "divergent-discard",
			Sev:  SevInfo,
			Pos:  in.SrcPos,
			Msg: "discard depends on per-fragment values; under masked-lane " +
				"execution lanes die here individually",
		})
	}
	return fs
}

// lintDeadClamps flags reachable CLAMP instructions whose input is
// already proven inside [lo, hi] on every written lane, with no NaN in
// any of the three operands (a NaN input passes through CLAMP, so the
// proof must exclude it). The instruction is then an identity costing ALU
// cycles on every fragment.
func lintDeadClamps(p *shader.Program, r *Ranges, sccp *SCCP) []Finding {
	if r.AllTop {
		return nil
	}
	var fs []Finding
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op != shader.OpCLAMP || !sccp.Reachable[i] {
			continue
		}
		mask := in.WriteMask()
		if mask == 0 {
			continue
		}
		dead := true
		for l := 0; l < 4 && dead; l++ {
			if mask&(1<<uint(l)) == 0 {
				continue
			}
			x := r.Operand[i][0][l]
			lo := r.Operand[i][1][l]
			hi := r.Operand[i][2][l]
			if x.NaN || lo.NaN || hi.NaN || x.Lo < lo.Hi || x.Hi > hi.Lo {
				dead = false
			}
		}
		if !dead {
			continue
		}
		fs = append(fs, Finding{
			Code: "provably-dead-clamp",
			Sev:  SevWarning,
			Pos:  in.SrcPos,
			Msg: "clamp is provably a no-op: the value is already within the " +
				"clamp bounds on every written component",
		})
	}
	return fs
}

// lintFootprints flags sampler slots whose texel footprint the analysis
// cannot bound statically, with the defeating fetch and reason. Those
// slots keep per-fetch dynamic tracking in the coherence cache instead of
// the up-front proven rectangle.
func lintFootprints(p *shader.Program, f *Footprint) []Finding {
	var fs []Finding
	for si := range f.Slots {
		s := &f.Slots[si]
		if s.Provable {
			continue
		}
		fd := Finding{
			Code: "unbounded-footprint",
			Sev:  SevInfo,
			Msg: fmt.Sprintf("sampler slot %d has a statically unbounded footprint (%s); "+
				"the coherence cache falls back to per-fetch tracking for it", si, s.Reason),
		}
		if s.Pc >= 0 && s.Pc < len(p.Insts) {
			fd.Pos = p.Insts[s.Pc].SrcPos
		}
		fs = append(fs, fd)
	}
	return fs
}
