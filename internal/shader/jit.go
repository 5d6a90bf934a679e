package shader

// Closure-compiled shader execution.
//
// The interpreter in vm.go re-decodes every instruction on every
// invocation: a switch dispatch per instruction, a swizzle/negate resolve
// per operand, a write-mask test per destination component, and a float64
// round-trip per ALU lane. A fragment program runs once per fragment — for
// the paper-sized workloads that is millions of invocations of the same
// immutable instruction sequence, so the simulator's host bottleneck is
// pure re-decode overhead.
//
// compileProgram pays the decode cost once per (Program, CostModel) pair
// and produces a flat slice of specialized Go closures:
//
//   - Source operands are resolved at compile time. Constants become
//     captured Vec4 values (no constAt indirection); identity-swizzle,
//     non-negated registers read their bank directly; everything else gets
//     a closure with the swizzle lanes and negation baked in.
//   - Destinations with a full write mask assign the whole Vec4; partial
//     masks become four captured booleans, no bit tests on the hot path.
//   - Arithmetic runs float32-native exactly where that is bit-identical
//     to the interpreter's float64 round-trip, and float64 elsewhere (see
//     the lane notes below). Outputs are therefore byte-identical.
//   - Per-instruction cycle costs are baked into each closure, and for
//     straight-line programs (no branches, no KIL — every generated GPGPU
//     kernel, since loops are fully unrolled) the whole program's cycle
//     cost is precomputed so the inner loop touches Env.Cycles once.
//
// Float-precision audit (which ops may run float32-native):
//
//   - ADD/SUB/MUL/DIV/RCP: the interpreter computes in float64 and rounds
//     to float32. For operations that are exactly rounded in both
//     precisions, rounding the double result to single equals computing
//     directly in single whenever the wide format carries at least 2p+2
//     significand bits (Figueroa, "When is double rounding innocuous?").
//     float64 has 53 >= 2*24+2, so these are bit-exact in float32.
//   - Comparisons (SLT..SNE, SGN): float32→float64 conversion is exact,
//     so the predicate value is identical; results 0.0/±1.0 are exact.
//   - MIN/MAX: bit-exact only if the float32 versions reproduce
//     math.Min/math.Max semantics — NaN normalisation (the float64 path
//     collapses any NaN payload to float32(math.NaN())) and signed-zero
//     selection. min32/max32 below do exactly that.
//   - MAD, DPn, MUL24, CLAMP, SEL, MOV, TEX: the interpreter already
//     executes these in float32; the compiled closures replicate the same
//     expression shapes (same operation order, so any platform FMA-fusing
//     decisions match too).
//   - Transcendentals (FLR/CEIL/FRC/RSQ/SQRT/EX2/LG2/POW/EXP/LOG/trig,
//     ABS): kept on the interpreter's float64 math-package path. Several
//     would be safe in float32 (SQRT is exactly rounded; FLR/CEIL results
//     are representable) but they bottom out in float64 math calls anyway,
//     so there is nothing to win and no risk taken.
//
// The interpreter remains the reference semantics; the differential tests
// in jit_test.go prove bit-equal Outputs/Temps and equal
// Cycles/TexFetches/Discarded on the kernel suite and on fuzzed programs.

import (
	"fmt"
	"io"
	"math"
	"os"
)

// noJITEnv disables the compiled backend process-wide; read once at init.
var noJITEnv = os.Getenv("GLES2GPGPU_NO_JIT") != ""

// DefaultJIT reports whether the closure-compiled backend is enabled by
// default (it is, unless GLES2GPGPU_NO_JIT is set in the environment).
func DefaultJIT() bool { return !noJITEnv }

// compiledOp executes one instruction under the general (branch-capable)
// runner and returns the next pc; negative means halt.
type compiledOp func(e *Env) int

// srcFn reads one fully-resolved source operand.
type srcFn func(e *Env) Vec4

// dstFn writes one instruction result with the mask pre-applied.
type dstFn func(e *Env, v Vec4)

// OpNote records the specialization decisions taken for one instruction,
// for the `glslc -compiled` debug dump.
type OpNote struct {
	PC   int
	Lane string // "f32", "f64", "ctl", "tex", "none"
	A    string // "", "const", "direct", "swiz", "neg", "swiz+neg"
	B    string
	C    string
	Dst  string // "", "full", "mask", "drop"
	Cost int64
	// Dead marks instructions the pass pipeline proved unobservable: the
	// closure skips the computation but still charges Cost (and counts
	// the fetch for TEX), so virtual time is unchanged.
	Dead bool
}

// Compiled is the closure-compiled form of one Program under one
// CostModel. It is immutable after compileProgram returns, so any number
// of goroutines may Run it concurrently with distinct Envs.
type Compiled struct {
	prog *Program
	cost *CostModel
	// opt is non-nil when the compile ran over an OptProgram's rewritten
	// instructions (see Program.CompiledOpt); it keys the jitOpt cache.
	opt *OptProgram
	// insts is the instruction stream the compile ran over (the
	// original program's or the OptProgram's), retained for Dump.
	insts []Inst

	// Straight-line fast path: no control flow, so every closure executes
	// exactly once and the total cycle cost is a compile-time constant.
	straight   bool
	line       []func(*Env)
	lineCycles int64

	// General path: pc-returning closures with per-op costs baked in.
	ops []compiledOp

	notes []OpNote
}

// Straight reports whether the program compiled to the branch-free path
// with a single precomputed cycle increment.
func (c *Compiled) Straight() bool { return c.straight }

// PrecomputedCycles returns the per-invocation cycle cost baked in for
// straight-line programs (0 for programs with control flow).
func (c *Compiled) PrecomputedCycles() int64 { return c.lineCycles }

// Notes returns the per-instruction specialization decisions.
func (c *Compiled) Notes() []OpNote { return c.notes }

// Run executes the compiled program in env. Semantics, error behaviour and
// all Env counters are bit-identical to Run(p, env, cost) with the
// (program, cost model) pair the Compiled was built from.
func (c *Compiled) Run(env *Env) error {
	if c.straight {
		for _, f := range c.line {
			f(env)
		}
		env.Cycles += c.lineCycles
		return nil
	}
	n := len(c.ops)
	steps := 0
	for pc := 0; pc >= 0 && pc < n; {
		steps++
		if steps > maxSteps {
			return &ErrVM{PC: pc, Msg: "instruction budget exceeded (runaway branch?)"}
		}
		pc = c.ops[pc](env)
	}
	return nil
}

// Compiled returns the closure-compiled form of p under cost, building it
// on first use and caching it on the Program next to the liveness proofs.
// It returns nil when p contains an opcode the closure backend does not
// handle (callers fall back to the interpreter, which reports the error).
// The one-entry cache is keyed by the CostModel pointer: a Program belongs
// to one device profile — serving pools share Programs across engines, but
// all engines of a pool share one Profile — so the key never thrashes in
// practice. Reads are lock-free; fills are serialised under jitMu so
// concurrent engines racing on a cold shared kernel compile it once.
func (p *Program) Compiled(cost *CostModel) *Compiled {
	if c := p.jit.Load(); c != nil && c.cost == cost {
		return c
	}
	p.jitMu.Lock()
	defer p.jitMu.Unlock()
	if c := p.jit.Load(); c != nil && c.cost == cost {
		return c
	}
	c := compileFrom(p, p.Insts, p.Consts, nil, cost)
	if c == nil {
		return nil
	}
	p.jit.Store(c)
	return c
}

// CompiledOpt returns the closure-compiled form of p's optimised program
// (the OptProgram attached by SetOptimized) under cost, caching it in a
// second slot keyed by (cost, OptProgram) identity. When no OptProgram is
// attached it falls back to Compiled; it returns nil when the program does
// not compile (interpreter fallback).
func (p *Program) CompiledOpt(cost *CostModel) *Compiled {
	o := p.Optimized()
	if o == nil {
		return p.Compiled(cost)
	}
	if c := p.jitOpt.Load(); c != nil && c.cost == cost && c.opt == o {
		return c
	}
	p.jitMu.Lock()
	defer p.jitMu.Unlock()
	if c := p.jitOpt.Load(); c != nil && c.cost == cost && c.opt == o {
		return c
	}
	c := compileFrom(p, o.Insts, o.Consts, o.Dead, cost)
	if c == nil {
		return nil
	}
	c.opt = o
	p.jitOpt.Store(c)
	return c
}

// Executor returns the fastest execution function available for p under
// cost: the closure-compiled backend when useJIT is true and p compiles,
// else the reference interpreter; with usePasses, both backends run the
// optimised form when one is attached (bit-identical by the OptProgram
// contract). The returned function is safe for concurrent use with
// distinct Envs.
func Executor(p *Program, cost *CostModel, useJIT, usePasses bool) func(*Env) error {
	if useJIT {
		var c *Compiled
		if usePasses {
			c = p.CompiledOpt(cost)
		} else {
			c = p.Compiled(cost)
		}
		if c != nil {
			return c.Run
		}
	}
	if usePasses && p.Optimized() != nil {
		return func(e *Env) error { return RunOptimized(p, e, cost) }
	}
	return func(e *Env) error { return Run(p, e, cost) }
}

// compileFrom translates an instruction stream (the program's own, or an
// OptProgram's rewritten one with its extended constant pool and dead
// flags) into closures. Returns nil on any opcode the backend cannot prove
// it executes identically to the interpreter.
func compileFrom(p *Program, insts []Inst, consts [][4]float32, dead []bool, cost *CostModel) *Compiled {
	c := &Compiled{prog: p, cost: cost, insts: insts}
	n := len(insts)

	c.straight = StraightLine(insts)
	if c.straight {
		c.line = make([]func(*Env), 0, n)
		for i := range insts {
			in := &insts[i]
			ic := cost.InstCost(in)
			c.lineCycles += ic
			note := OpNote{PC: i, Cost: ic}
			switch in.Op {
			case OpNOP, OpRET:
				note.Lane = "none"
				c.notes = append(c.notes, note)
				continue
			case OpBR, OpBRZ:
				// Fall-through branch (verified above): cost-only.
				note.Lane = "none"
				c.notes = append(c.notes, note)
				continue
			}
			if dead != nil && dead[i] {
				// Cost is already folded into lineCycles; a dead TEX
				// still counts its fetch.
				note.Dead = true
				note.Lane = "none"
				if in.Op == OpTEX {
					note.Lane = "tex"
					c.line = append(c.line, func(e *Env) { e.TexFetches++ })
				}
				c.notes = append(c.notes, note)
				continue
			}
			fn := compileInst(consts, in, &note)
			if fn == nil {
				return nil
			}
			c.line = append(c.line, fn)
			c.notes = append(c.notes, note)
		}
		return c
	}

	c.ops = make([]compiledOp, n)
	for i := range insts {
		in := &insts[i]
		ic := cost.InstCost(in)
		next := i + 1
		note := OpNote{PC: i, Cost: ic}
		switch {
		case dead != nil && dead[i]:
			// Control flow and KIL are never dead (SetOptimized enforces
			// it), so charging cost and falling through is exact.
			note.Dead = true
			note.Lane = "none"
			if in.Op == OpTEX {
				note.Lane = "tex"
				c.ops[i] = func(e *Env) int { e.Cycles += ic; e.TexFetches++; return next }
			} else {
				c.ops[i] = func(e *Env) int { e.Cycles += ic; return next }
			}
		case in.Op == OpNOP:
			note.Lane = "none"
			c.ops[i] = func(e *Env) int { e.Cycles += ic; return next }
		case in.Op == OpRET:
			note.Lane = "ctl"
			c.ops[i] = func(e *Env) int { e.Cycles += ic; return -1 }
		case in.Op == OpBR:
			note.Lane = "ctl"
			target := int(in.Target)
			c.ops[i] = func(e *Env) int { e.Cycles += ic; return target }
		case in.Op == OpBRZ:
			note.Lane = "ctl"
			target := int(in.Target)
			ra := compileSrc1(consts, in.A, &note.A)
			c.ops[i] = func(e *Env) int {
				e.Cycles += ic
				if ra(e) == 0 {
					return target
				}
				return next
			}
		case in.Op == OpKIL:
			note.Lane = "ctl"
			ra := compileSrc1(consts, in.A, &note.A)
			c.ops[i] = func(e *Env) int {
				e.Cycles += ic
				if ra(e) != 0 {
					e.Discarded = true
					return -1
				}
				return next
			}
		default:
			fn := compileInst(consts, in, &note)
			if fn == nil {
				return nil
			}
			c.ops[i] = func(e *Env) int {
				e.Cycles += ic
				fn(e)
				return next
			}
		}
		c.notes = append(c.notes, note)
	}
	return c
}

// min32 / max32 reproduce float32(math.Min/Max(float64(x), float64(y)))
// bit-for-bit, including math.Min/Max's special-case order: the dominating
// infinity is checked BEFORE NaN (math.Min(-Inf, NaN) is -Inf, not NaN),
// any remaining NaN collapses to the canonical float32 NaN (exactly what
// the float64 round-trip produces), and ±0 selection follows the sign bit.
// For ordinary operands the comparison is exact because float32→float64
// conversion is.
func min32(x, y float32) float32 {
	switch {
	case math.IsInf(float64(x), -1) || math.IsInf(float64(y), -1):
		return float32(math.Inf(-1))
	case x != x || y != y:
		return float32(math.NaN())
	case x == 0 && x == y:
		if math.Signbit(float64(x)) {
			return x
		}
		return y
	}
	if x < y {
		return x
	}
	return y
}

func max32(x, y float32) float32 {
	switch {
	case math.IsInf(float64(x), 1) || math.IsInf(float64(y), 1):
		return float32(math.Inf(1))
	case x != x || y != y:
		return float32(math.NaN())
	case x == 0 && x == y:
		if math.Signbit(float64(x)) {
			return y
		}
		return x
	}
	if x > y {
		return x
	}
	return y
}

// compileInst builds the closure for one non-control-flow instruction,
// recording specialization decisions in note. Returns nil for opcodes the
// backend does not support.
func compileInst(consts [][4]float32, in *Inst, note *OpNote) func(*Env) {
	wr := compileDst(in.Dst, &note.Dst)
	switch in.Op {
	case OpTEX:
		note.Lane = "tex"
		ra := compileSrc(consts, in.A, &note.A)
		sampler := int(in.SamplerIdx)
		return func(e *Env) {
			e.TexFetches++
			a := ra(e)
			var texel Vec4
			if sampler >= 0 && sampler < len(e.Samplers) && e.Samplers[sampler] != nil {
				texel = e.Samplers[sampler](a[0], a[1])
			} else if e.Sample != nil {
				texel = e.Sample(sampler, a[0], a[1])
			}
			wr(e, texel)
		}
	case OpMOV:
		note.Lane = "f32"
		ra := compileSrc(consts, in.A, &note.A)
		return func(e *Env) { wr(e, ra(e)) }
	case OpDP2, OpDP3, OpDP4:
		note.Lane = "f32"
		ra := compileSrc(consts, in.A, &note.A)
		rb := compileSrc(consts, in.B, &note.B)
		lanes := 2 + int(in.Op) - int(OpDP2)
		return func(e *Env) {
			a, b := ra(e), rb(e)
			var s float32
			for i := 0; i < lanes; i++ {
				s += a[i] * b[i]
			}
			wr(e, Vec4{s, s, s, s})
		}
	case OpMAD:
		note.Lane = "f32"
		ra := compileSrc(consts, in.A, &note.A)
		rb := compileSrc(consts, in.B, &note.B)
		rc := compileSrc(consts, in.C, &note.C)
		return func(e *Env) {
			a, b, c := ra(e), rb(e), rc(e)
			wr(e, Vec4{
				a[0]*b[0] + c[0], a[1]*b[1] + c[1],
				a[2]*b[2] + c[2], a[3]*b[3] + c[3],
			})
		}
	case OpMUL24:
		note.Lane = "f32"
		ra := compileSrc(consts, in.A, &note.A)
		rb := compileSrc(consts, in.B, &note.B)
		return func(e *Env) {
			a, b := ra(e), rb(e)
			var r Vec4
			for i := 0; i < 4; i++ {
				r[i] = quant24(a[i]) * quant24(b[i])
			}
			wr(e, r)
		}
	case OpCLAMP:
		note.Lane = "f32"
		ra := compileSrc(consts, in.A, &note.A)
		rb := compileSrc(consts, in.B, &note.B)
		rc := compileSrc(consts, in.C, &note.C)
		return func(e *Env) {
			a, lo, hi := ra(e), rb(e), rc(e)
			var r Vec4
			for i := 0; i < 4; i++ {
				v := a[i]
				if v < lo[i] {
					v = lo[i]
				}
				if v > hi[i] {
					v = hi[i]
				}
				r[i] = v
			}
			wr(e, r)
		}
	case OpSEL:
		note.Lane = "f32"
		ra := compileSrc(consts, in.A, &note.A)
		rb := compileSrc(consts, in.B, &note.B)
		rc := compileSrc(consts, in.C, &note.C)
		return func(e *Env) {
			a, b, c := ra(e), rb(e), rc(e)
			var r Vec4
			for i := 0; i < 4; i++ {
				if a[i] != 0 {
					r[i] = b[i]
				} else {
					r[i] = c[i]
				}
			}
			wr(e, r)
		}
	case OpADD:
		note.Lane = "f32"
		ra, rb := compileSrc(consts, in.A, &note.A), compileSrc(consts, in.B, &note.B)
		return func(e *Env) {
			a, b := ra(e), rb(e)
			wr(e, Vec4{a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]})
		}
	case OpSUB:
		note.Lane = "f32"
		ra, rb := compileSrc(consts, in.A, &note.A), compileSrc(consts, in.B, &note.B)
		return func(e *Env) {
			a, b := ra(e), rb(e)
			wr(e, Vec4{a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]})
		}
	case OpMUL:
		note.Lane = "f32"
		ra, rb := compileSrc(consts, in.A, &note.A), compileSrc(consts, in.B, &note.B)
		return func(e *Env) {
			a, b := ra(e), rb(e)
			wr(e, Vec4{a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]})
		}
	case OpDIV:
		note.Lane = "f32"
		ra, rb := compileSrc(consts, in.A, &note.A), compileSrc(consts, in.B, &note.B)
		return func(e *Env) {
			a, b := ra(e), rb(e)
			wr(e, Vec4{a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3]})
		}
	case OpMIN:
		note.Lane = "f32"
		ra, rb := compileSrc(consts, in.A, &note.A), compileSrc(consts, in.B, &note.B)
		return func(e *Env) {
			a, b := ra(e), rb(e)
			wr(e, Vec4{min32(a[0], b[0]), min32(a[1], b[1]), min32(a[2], b[2]), min32(a[3], b[3])})
		}
	case OpMAX:
		note.Lane = "f32"
		ra, rb := compileSrc(consts, in.A, &note.A), compileSrc(consts, in.B, &note.B)
		return func(e *Env) {
			a, b := ra(e), rb(e)
			wr(e, Vec4{max32(a[0], b[0]), max32(a[1], b[1]), max32(a[2], b[2]), max32(a[3], b[3])})
		}
	case OpRCP:
		note.Lane = "f32"
		ra := compileSrc(consts, in.A, &note.A)
		return func(e *Env) {
			a := ra(e)
			wr(e, Vec4{1 / a[0], 1 / a[1], 1 / a[2], 1 / a[3]})
		}
	case OpQUANT:
		note.Lane = "f32"
		ra := compileSrc(consts, in.A, &note.A)
		return func(e *Env) {
			a := ra(e)
			wr(e, Vec4{
				QuantizeChannel(a[0]), QuantizeChannel(a[1]),
				QuantizeChannel(a[2]), QuantizeChannel(a[3]),
			})
		}
	case OpSGN:
		note.Lane = "f32"
		ra := compileSrc(consts, in.A, &note.A)
		sgn := func(x float32) float32 {
			if x > 0 {
				return 1
			}
			if x < 0 {
				return -1
			}
			return 0
		}
		return func(e *Env) {
			a := ra(e)
			wr(e, Vec4{sgn(a[0]), sgn(a[1]), sgn(a[2]), sgn(a[3])})
		}
	case OpSLT, OpSLE, OpSGT, OpSGE, OpSEQ, OpSNE:
		note.Lane = "f32"
		ra, rb := compileSrc(consts, in.A, &note.A), compileSrc(consts, in.B, &note.B)
		var cmp func(x, y float32) bool
		switch in.Op {
		case OpSLT:
			cmp = func(x, y float32) bool { return x < y }
		case OpSLE:
			cmp = func(x, y float32) bool { return x <= y }
		case OpSGT:
			cmp = func(x, y float32) bool { return x > y }
		case OpSGE:
			cmp = func(x, y float32) bool { return x >= y }
		case OpSEQ:
			cmp = func(x, y float32) bool { return x == y }
		default:
			cmp = func(x, y float32) bool { return x != y }
		}
		return func(e *Env) {
			a, b := ra(e), rb(e)
			var r Vec4
			for i := 0; i < 4; i++ {
				if cmp(a[i], b[i]) {
					r[i] = 1
				}
			}
			wr(e, r)
		}
	case OpABS, OpFLR, OpCEIL, OpFRC, OpRSQ, OpSQRT, OpEX2, OpLG2,
		OpEXP, OpLOG, OpSIN, OpCOS, OpTAN, OpASIN, OpACOS, OpATAN:
		note.Lane = "f64"
		ra := compileSrc(consts, in.A, &note.A)
		var f func(float64) float64
		switch in.Op {
		case OpABS:
			f = math.Abs
		case OpFLR:
			f = math.Floor
		case OpCEIL:
			f = math.Ceil
		case OpFRC:
			f = func(x float64) float64 { return x - math.Floor(x) }
		case OpRSQ:
			f = func(x float64) float64 { return 1 / math.Sqrt(x) }
		case OpSQRT:
			f = math.Sqrt
		case OpEX2:
			f = math.Exp2
		case OpLG2:
			f = math.Log2
		case OpEXP:
			f = math.Exp
		case OpLOG:
			f = math.Log
		case OpSIN:
			f = math.Sin
		case OpCOS:
			f = math.Cos
		case OpTAN:
			f = math.Tan
		case OpASIN:
			f = math.Asin
		case OpACOS:
			f = math.Acos
		default:
			f = math.Atan
		}
		return func(e *Env) {
			a := ra(e)
			wr(e, Vec4{
				float32(f(float64(a[0]))), float32(f(float64(a[1]))),
				float32(f(float64(a[2]))), float32(f(float64(a[3]))),
			})
		}
	case OpPOW, OpATAN2:
		note.Lane = "f64"
		ra, rb := compileSrc(consts, in.A, &note.A), compileSrc(consts, in.B, &note.B)
		f := math.Pow
		if in.Op == OpATAN2 {
			f = math.Atan2
		}
		return func(e *Env) {
			a, b := ra(e), rb(e)
			wr(e, Vec4{
				float32(f(float64(a[0]), float64(b[0]))),
				float32(f(float64(a[1]), float64(b[1]))),
				float32(f(float64(a[2]), float64(b[2]))),
				float32(f(float64(a[3]), float64(b[3]))),
			})
		}
	}
	return nil // unknown opcode: interpreter fallback reports it
}

// compileSrc resolves one source operand into a reader closure with the
// swizzle, negation and constant lookup folded away where possible.
func compileSrc(consts [][4]float32, s Src, note *string) srcFn {
	if s.File == FileConst {
		*note = "const"
		v := resolveConst(consts, s)
		return func(e *Env) Vec4 { return v }
	}
	identity := s.Swiz == IdentitySwiz
	base := baseReader(s.File, s.Reg)
	switch {
	case identity && !s.Neg:
		*note = "direct"
		return base
	case identity:
		*note = "neg"
		return func(e *Env) Vec4 {
			b := base(e)
			return Vec4{-b[0], -b[1], -b[2], -b[3]}
		}
	case !s.Neg:
		*note = "swiz"
		s0, s1, s2, s3 := s.Swiz[0]&3, s.Swiz[1]&3, s.Swiz[2]&3, s.Swiz[3]&3
		return func(e *Env) Vec4 {
			b := base(e)
			return Vec4{b[s0], b[s1], b[s2], b[s3]}
		}
	default:
		*note = "swiz+neg"
		s0, s1, s2, s3 := s.Swiz[0]&3, s.Swiz[1]&3, s.Swiz[2]&3, s.Swiz[3]&3
		return func(e *Env) Vec4 {
			b := base(e)
			return Vec4{-b[s0], -b[s1], -b[s2], -b[s3]}
		}
	}
}

// compileSrc1 resolves the scalar (lane-x) read used by BRZ and KIL,
// matching Env.read1: swizzle lane 0 selects the component, then negation.
func compileSrc1(consts [][4]float32, s Src, note *string) func(e *Env) float32 {
	lane := s.Swiz[0] & 3
	if s.File == FileConst {
		*note = "const"
		v := resolveConst(consts, s)[0]
		return func(e *Env) float32 { return v }
	}
	base := baseReader(s.File, s.Reg)
	if s.Neg {
		*note = "neg"
		return func(e *Env) float32 { return -base(e)[lane] }
	}
	*note = "direct"
	return func(e *Env) float32 { return base(e)[lane] }
}

// resolveConst folds a constant-pool operand (with swizzle and negation)
// into a value at compile time; out-of-range pool indices read zero,
// exactly as constAt does.
func resolveConst(consts [][4]float32, s Src) Vec4 {
	var base Vec4
	if int(s.Reg) < len(consts) {
		base = Vec4(consts[s.Reg])
	}
	r := Vec4{base[s.Swiz[0]&3], base[s.Swiz[1]&3], base[s.Swiz[2]&3], base[s.Swiz[3]&3]}
	if s.Neg {
		r[0], r[1], r[2], r[3] = -r[0], -r[1], -r[2], -r[3]
	}
	return r
}

// baseReader returns the bank accessor for a register operand.
func baseReader(f RegFile, reg uint16) srcFn {
	r := int(reg)
	switch f {
	case FileTemp:
		return func(e *Env) Vec4 { return e.Temps[r] }
	case FileUniform:
		return func(e *Env) Vec4 { return e.Uniforms[r] }
	case FileInput:
		return func(e *Env) Vec4 { return e.Inputs[r] }
	case FileOutput:
		return func(e *Env) Vec4 { return e.Outputs[r] }
	default:
		return func(e *Env) Vec4 { return Vec4{} }
	}
}

// compileDst resolves a destination into a writer closure; full masks
// assign the whole register, partial masks bake the component tests into
// captured booleans, and writes to read-only files are dropped (compiler
// bugs, same as Env.write).
func compileDst(d Dst, note *string) dstFn {
	reg := int(d.Reg)
	if d.File != FileTemp && d.File != FileOutput {
		*note = "drop"
		return func(e *Env, v Vec4) {}
	}
	slot := func(e *Env) *Vec4 { return &e.Temps[reg] }
	if d.File == FileOutput {
		slot = func(e *Env) *Vec4 { return &e.Outputs[reg] }
	}
	if d.Mask == MaskAll {
		*note = "full"
		return func(e *Env, v Vec4) { *slot(e) = v }
	}
	*note = "mask"
	w0, w1 := d.Mask&1 != 0, d.Mask&2 != 0
	w2, w3 := d.Mask&4 != 0, d.Mask&8 != 0
	return func(e *Env, v Vec4) {
		s := slot(e)
		if w0 {
			s[0] = v[0]
		}
		if w1 {
			s[1] = v[1]
		}
		if w2 {
			s[2] = v[2]
		}
		if w3 {
			s[3] = v[3]
		}
	}
}

// Dump writes the per-op specialization decisions in a human-readable form
// (the `glslc -compiled` output).
func (c *Compiled) Dump(w io.Writer) {
	if c.straight {
		fmt.Fprintf(w, "; jit: straight-line; %d cycles/invocation precomputed as one block\n",
			c.lineCycles)
	} else {
		fmt.Fprintf(w, "; jit: control flow present; per-instruction cycle accounting\n")
	}
	var direct, srcs, full, dsts, f32, f64 int
	count := func(s string) {
		if s == "" {
			return
		}
		srcs++
		if s == "direct" || s == "const" {
			direct++
		}
	}
	for _, n := range c.notes {
		count(n.A)
		count(n.B)
		count(n.C)
		if n.Dst != "" {
			dsts++
			if n.Dst == "full" {
				full++
			}
		}
		switch n.Lane {
		case "f32":
			f32++
		case "f64":
			f64++
		}
	}
	fmt.Fprintf(w, "; jit: %d/%d fast-path srcs (direct/const), %d/%d full-mask dsts, %d f32 lanes, %d f64 lanes\n",
		direct, srcs, full, dsts, f32, f64)
	for _, n := range c.notes {
		detail := "lane=" + n.Lane
		for _, op := range []struct{ tag, v string }{{"a", n.A}, {"b", n.B}, {"c", n.C}, {"dst", n.Dst}} {
			if op.v != "" {
				detail += " " + op.tag + "=" + op.v
			}
		}
		fmt.Fprintf(w, "%4d: %-40s ; %s cost=%d\n",
			n.PC, c.insts[n.PC].String(), detail, n.Cost)
	}
}
