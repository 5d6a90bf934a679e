package shader

// Optimised-program plumbing.
//
// The optimisation passes themselves (dead-code elimination, copy/constant
// propagation) live in internal/shader/analysis, which imports this
// package; results flow back through SetOptimized. The contract an
// OptProgram must satisfy is deliberately narrow so the simulator's
// virtual-time model is unaffected by host-side optimisation:
//
//   - Same instruction count, same opcode, destination, sampler and branch
//     target at every index. Only source operands may be rewritten
//     (swizzle/negation folded through copies, operands redirected to the
//     constant pool) and instructions may be flagged Dead.
//   - Dead instructions still charge their cycle cost, and a dead TEX
//     still counts a texture fetch: on the modelled hardware the
//     instruction executes regardless — only our host does less work. This
//     keeps Cycles/TexFetches and every glesbench figure bit-identical
//     with passes on or off.
//   - Control flow (BR/BRZ/RET) and KIL are never dead, so the execution
//     path — and therefore which instructions are charged — is unchanged.
//
// SetOptimized validates the contract; the differential tests in
// internal/shader/analysis prove bit-exact outputs on top of it.

import (
	"fmt"
	"os"
)

// OptProgram is the optimised execution form of a Program produced by the
// analysis pass pipeline. Insts parallels Program.Insts index-for-index;
// Consts extends the original constant pool (propagation may intern new
// vectors).
type OptProgram struct {
	Insts  []Inst
	Consts [][4]float32
	// Dead[i] marks instructions whose computation is skipped on the
	// host (cycle cost and tex-fetch accounting still happen).
	Dead []bool

	// Pass statistics for diagnostics (glslc -passes).
	DeadInsts      int // instructions flagged dead
	PropagatedSrcs int // source operands rewritten through copies
	FoldedConsts   int // source operands replaced by constants
}

// noPassesEnv disables use of optimisation passes process-wide; read once
// at init.
var noPassesEnv = os.Getenv("GLES2GPGPU_NO_PASSES") != ""

// DefaultPasses reports whether the optimisation passes are enabled by
// default (they are, unless GLES2GPGPU_NO_PASSES is set in the
// environment).
func DefaultPasses() bool { return !noPassesEnv }

// SetOptimized attaches the pass-pipeline result to p after validating the
// virtual-time contract documented above. It is safe to call concurrently
// with executions of p; in-flight Executors keep whichever form they
// resolved.
func (p *Program) SetOptimized(o *OptProgram) error {
	if o == nil {
		return fmt.Errorf("shader: SetOptimized(nil)")
	}
	if len(o.Insts) != len(p.Insts) {
		return fmt.Errorf("shader: optimised program has %d insts, original %d",
			len(o.Insts), len(p.Insts))
	}
	if o.Dead != nil && len(o.Dead) != len(o.Insts) {
		return fmt.Errorf("shader: Dead length %d != inst count %d", len(o.Dead), len(o.Insts))
	}
	for i := range o.Insts {
		oi, pi := &o.Insts[i], &p.Insts[i]
		if oi.Op != pi.Op || oi.Dst != pi.Dst || oi.Target != pi.Target ||
			oi.SamplerIdx != pi.SamplerIdx {
			return fmt.Errorf("shader: optimised inst %d changed shape: %s vs %s",
				i, oi.String(), pi.String())
		}
		if o.Dead != nil && o.Dead[i] {
			switch oi.Op {
			case OpBR, OpBRZ, OpRET, OpKIL:
				return fmt.Errorf("shader: control-flow inst %d (%s) flagged dead", i, oi.Op)
			}
		}
	}
	p.opt.Store(o)
	return nil
}

// Optimized returns the attached pass-pipeline result, or nil when no
// passes have run.
func (p *Program) Optimized() *OptProgram { return p.opt.Load() }

// RunOptimized executes p's optimised form in env on the reference
// interpreter, falling back to Run when no OptProgram is attached.
// Outputs, Cycles, TexFetches and Discarded are bit-identical to Run.
func RunOptimized(p *Program, env *Env, cost *CostModel) error {
	o := p.Optimized()
	if o == nil {
		return Run(p, env, cost)
	}
	return runInsts(o.Insts, o.Consts, o.Dead, env, cost)
}

// Executor returns the reference interpreter for p under cost as one
// execution function: RunOptimized when usePasses is set and an
// OptProgram is attached, else Run. It runs everything the lane engine
// does not: vertex shaders, fragment programs without the liveness
// proofs, and the per-fragment reference. The returned function is safe
// for concurrent use with distinct Envs.
func Executor(p *Program, cost *CostModel, usePasses bool) func(*Env) error {
	if usePasses && p.Optimized() != nil {
		return func(e *Env) error { return RunOptimized(p, e, cost) }
	}
	return func(e *Env) error { return Run(p, e, cost) }
}

// EvalInst executes one data instruction on explicit operand values using
// the reference interpreter and returns the (pre-mask) result vector. The
// operands a, b, c are the base register values the instruction's A, B, C
// sources read from; swizzles and negation are applied exactly as at
// runtime. Control flow, KIL and TEX are not evaluable and report ok ==
// false. Constant folding in the analysis passes goes through this — the
// folded value is bit-exact by construction because it is computed by the
// same VM that would compute it at runtime.
func EvalInst(in Inst, a, b, c Vec4) (Vec4, bool) {
	switch in.Op {
	case OpNOP, OpRET, OpBR, OpBRZ, OpKIL, OpTEX:
		return Vec4{}, false
	case opMax:
		return Vec4{}, false
	}
	inst := in
	inst.A.File, inst.A.Reg = FileTemp, 0
	inst.B.File, inst.B.Reg = FileTemp, 1
	inst.C.File, inst.C.Reg = FileTemp, 2
	inst.Dst = Dst{File: FileTemp, Reg: 3, Mask: MaskAll}
	p := Program{Insts: []Inst{inst}, NumTemps: 4}
	cost := DefaultCostModel()
	env := Env{Temps: []Vec4{a, b, c, {}}}
	if err := Run(&p, &env, &cost); err != nil {
		return Vec4{}, false
	}
	return env.Temps[3], true
}
