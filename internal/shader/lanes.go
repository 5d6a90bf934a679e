package shader

// Lane-batched (SoA) shader execution.
//
// The interpreter in vm.go re-decodes every instruction on every
// invocation: a switch dispatch per instruction, a swizzle/negate resolve
// per operand, a write-mask test per destination component. For the
// paper-sized workloads the fragment program is a short straight line run
// millions of times, so dispatch — not arithmetic — dominates host time.
// Real mobile GPGPU stacks amortise exactly this cost with wide SIMD
// execution: one instruction is issued once and applied to a whole
// workgroup of invocations.
//
// This file reproduces that structure on the host. A LaneCompiled runs a
// batch of up to W fragments ("lanes") through each instruction at once
// over a structure-of-arrays register file: each register component is a
// contiguous [W]float32 slab, so the per-op inner loop is a tight
// bounds-check-eliminated float32 loop the compiler can keep in registers.
// Decode is paid once per program and closure dispatch once per
// instruction per *batch*, amortising it W×.
//
// One compiler, two forms. Every program LaneFallbackAt admits (forward
// branches only, every opcode implemented — true of every program the
// GLSL compiler emits, since loops are fully unrolled) lane-compiles; the
// instruction stream alone picks the form:
//
//   - Straight-line (no real jump, no KIL, RET only in the final slot;
//     fall-through branches are cost-only no-ops): the line form below
//     runs every instruction over the whole batch with no staging, commit
//     or active-lane scan. Every packed lane runs to completion, so the
//     live-lane mask is a dense prefix 0..N-1 and a partial final batch
//     simply has N < W.
//   - Otherwise (jacobi's boundary ternary, discard, early return): the
//     stepped form in lanes_masked.go runs the same per-op bodies under a
//     per-lane active mask.
//
// Bit-identity with the interpreter, which stays the reference semantics.
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
//     executes these in float32; the lane bodies replicate the same
//     expression shapes (same operation order, so any platform FMA-fusing
//     decisions match too).
//   - Transcendentals (FLR/CEIL/FRC/RSQ/SQRT/EX2/LG2/POW/EXP/LOG/trig,
//     ABS): kept on the interpreter's float64 math-package path. Several
//     would be safe in float32 (SQRT is exactly rounded; FLR/CEIL results
//     are representable) but they bottom out in float64 math calls anyway,
//     so there is nothing to win and no risk taken.
//
// Lanes never interact — DPn reductions run within one lane's four
// components — so a batch of N produces bit-for-bit the outputs of N
// serial invocations, and Cycles/TexFetches advance by exactly N× the
// per-invocation amounts. The differential tests in lanes_test.go and
// lanes_masked_test.go check this against the interpreter on the kernel
// suite and on fuzzed programs.
//
// Garbage lanes: ALU loops run over the full width even when N < W; the
// stale values in lanes N..W-1 are never observed (only lanes < N are
// scattered) and float arithmetic on garbage cannot trap in Go. TEX loops
// run over live lanes only, so fetch counts and sampler calls are exact.

import (
	"fmt"
	"math"
	"sync/atomic"
)

// MaxLaneWidth bounds the SoA batch width. 16 keeps one register
// component's slab (64 bytes) within a cache line.
const MaxLaneWidth = 16

// DefaultLaneWidth is the batch width the GLES layer runs lanes at;
// chosen by the lane microbenchmarks in internal/bench (see BENCH_PR6.json).
const DefaultLaneWidth = 8

// LaneEnv is the execution environment of one batch of shader invocations,
// the SoA analogue of Env. Register banks are flat []float32 slabs laid
// out lane-major per component: register r, component c, lane l lives at
// index (r*4+c)*Width + l. Reuse one LaneEnv across batches (see
// LaneEnvPool); counters accumulate and callers measure deltas, exactly
// like pooled Envs.
type LaneEnv struct {
	Width int // allocated lane count (the W the banks are laid out for)
	N     int // live lanes in the current batch (0 < N <= Width)

	Uni []float32 // uniforms, broadcast across lanes (SetUniforms)
	In  []float32 // per-lane inputs (SetInput)
	Out []float32 // per-lane outputs (Output)
	Tmp []float32 // per-lane temporaries

	// scratch blocks materialise negated sources (0..2 for A/B/C) and
	// stage destinations that alias a source register (3), so op loops
	// never observe their own writes mid-instruction.
	scratch [4][]float32

	Sample   SampleFunc
	Samplers []TexFunc

	Cycles     int64
	TexFetches int64

	// Discarded flags the lanes that executed a KIL in the last masked
	// batch (see lanes_masked.go); scatter paths skip them. Batches run in
	// the line form never discard and leave all entries false.
	Discarded []bool

	// Masked-execution per-batch state (lanes_masked.go): per-lane resume
	// pc and the scratch list of lanes active at the current step.
	nextPC  []int32
	maskAct []int32

	prog *Program
}

// NewLaneEnv returns a batch environment sized for p at the given width.
func NewLaneEnv(p *Program, width int) *LaneEnv {
	if width < 1 {
		width = 1
	} else if width > MaxLaneWidth {
		width = MaxLaneWidth
	}
	e := &LaneEnv{
		Width:     width,
		Uni:       make([]float32, maxi(p.NumUniform, 1)*4*width),
		In:        make([]float32, maxi(p.NumInputs, 1)*4*width),
		Out:       make([]float32, maxi(p.NumOutputs, 1)*4*width),
		Tmp:       make([]float32, maxi(p.NumTemps, 1)*4*width),
		Discarded: make([]bool, width),
		nextPC:    make([]int32, width),
		maskAct:   make([]int32, 0, width),
		prog:      p,
	}
	for i := range e.scratch {
		e.scratch[i] = make([]float32, 4*width)
	}
	return e
}

// Program returns the program the LaneEnv was sized for.
func (e *LaneEnv) Program() *Program { return e.prog }

// SetUniforms broadcasts a draw's uniform registers across all lanes.
// Uniforms are draw-invariant, so this runs once per draw, not per batch.
func (e *LaneEnv) SetUniforms(us []Vec4) {
	w := e.Width
	n := len(us)
	if max := len(e.Uni) / (4 * w); n > max {
		n = max
	}
	for r := 0; r < n; r++ {
		v := us[r]
		for c := 0; c < 4; c++ {
			lane := e.Uni[(r*4+c)*w:][:w]
			for l := range lane {
				lane[l] = v[c]
			}
		}
	}
}

// SetInput stores one lane's input register (a varying or gl_FragCoord).
func (e *LaneEnv) SetInput(lane, reg int, v Vec4) {
	w := e.Width
	base := reg * 4 * w
	e.In[base+lane] = v[0]
	e.In[base+w+lane] = v[1]
	e.In[base+2*w+lane] = v[2]
	e.In[base+3*w+lane] = v[3]
}

// Output reads one lane's output register after Run.
func (e *LaneEnv) Output(lane, reg int) Vec4 {
	w := e.Width
	base := reg * 4 * w
	return Vec4{
		e.Out[base+lane],
		e.Out[base+w+lane],
		e.Out[base+2*w+lane],
		e.Out[base+3*w+lane],
	}
}

// laneOp executes one instruction across the batch.
type laneOp func(e *LaneEnv)

// laneBlock resolves one register's 4*W-element slab at run time.
type laneBlock func(e *LaneEnv) []float32

// laneSrc is a compile-time-resolved source operand: a slab resolver plus
// per-result-component element offsets with the swizzle folded in
// (offs[c] = swiz[c]*W into the resolved slab).
type laneSrc struct {
	blk  laneBlock
	offs [4]int
}

// LaneCompiled is the lane-batched compiled form of one Program under one
// CostModel at one width: the straight-line line form or the stepped
// masked form (see the file comment). Immutable after compilation: any
// number of goroutines may Run it concurrently with distinct LaneEnvs.
type LaneCompiled struct {
	prog  *Program
	cost  *CostModel
	opt   *OptProgram // non-nil when compiled from the optimised form
	width int

	line          []laneOp
	cyclesPerLane int64 // -1 marks a cached ineligibility

	// Stepped (divergence-tolerant) form: when masked is set, line is empty
	// and steps drives the per-pc active-lane schedule in lanes_masked.go.
	// cyclesPerLane stays 0 because cost is charged per step per active
	// lane, reproducing the interpreter's per-lane totals under divergence.
	masked bool
	steps  []maskedStep

	// cst holds constant operands broadcast to SoA slabs at compile time
	// (swizzle and negation folded), appended per source instance.
	cst []float32
}

// Masked reports whether this compiled form runs under an active-lane mask
// (lanes_masked.go). Masked batches can discard individual lanes; scatter
// paths must consult LaneEnv.Discarded.
func (lc *LaneCompiled) Masked() bool { return lc.masked }

// Width returns the lane width the batch was compiled for.
func (lc *LaneCompiled) Width() int { return lc.width }

// Run executes the batch of e.N live lanes. Outputs for lanes 0..N-1 and
// the Cycles/TexFetches deltas are bit-identical to N serial interpreter
// invocations of the same program.
func (lc *LaneCompiled) Run(e *LaneEnv) {
	n := e.N
	if n <= 0 {
		return
	}
	if lc.masked {
		lc.runMasked(e)
		return
	}
	for _, f := range lc.line {
		f(e)
	}
	e.Cycles += lc.cyclesPerLane * int64(n)
}

// LaneCompiled returns the lane-batched compiled form of p under cost at
// the given width, building it on first use and caching it on the Program
// (one-entry cache keyed by cost pointer and width — a Program belongs to
// one device profile, and serving pools share Programs across engines of
// one Profile at one width, so the key never thrashes in practice).
// Returns nil when LaneFallbackAt rejects p or width is out of range
// [2, MaxLaneWidth]; callers fall back to the interpreter.
func (p *Program) LaneCompiled(cost *CostModel, width int) *LaneCompiled {
	return p.laneCached(&p.lanes, nil, cost, width)
}

// LaneCompiledOpt returns the lane-batched compiled form of p's optimised
// program (the OptProgram attached by SetOptimized) under cost at width,
// cached in a second slot keyed by (cost, width, OptProgram) identity.
// Falls back to LaneCompiled when no OptProgram is attached; returns nil
// when the program is ineligible.
func (p *Program) LaneCompiledOpt(cost *CostModel, width int) *LaneCompiled {
	o := p.Optimized()
	if o == nil {
		return p.LaneCompiled(cost, width)
	}
	return p.laneCached(&p.lanesOpt, o, cost, width)
}

// laneCached serves one lane cache slot: lock-free reads, fills serialised
// under laneMu, so concurrent engines racing on a cold shared kernel
// compile it once. Ineligible programs cache a sentinel so the eligibility
// scan is not repeated per draw.
func (p *Program) laneCached(slot *atomic.Pointer[LaneCompiled], o *OptProgram, cost *CostModel, width int) *LaneCompiled {
	c := slot.Load()
	if !c.keyed(cost, width, o) {
		p.laneMu.Lock()
		if c = slot.Load(); !c.keyed(cost, width, o) {
			insts, consts, dead := p.Insts, p.Consts, []bool(nil)
			if o != nil {
				insts, consts, dead = o.Insts, o.Consts, o.Dead
			}
			if c = compileLanes(p, insts, consts, dead, cost, width); c == nil {
				c = &LaneCompiled{prog: p, cost: cost, width: width, cyclesPerLane: -1}
			}
			c.opt = o
			slot.Store(c)
		}
		p.laneMu.Unlock()
	}
	if c.cyclesPerLane < 0 {
		return nil
	}
	return c
}

// keyed reports whether a cache entry was built for (cost, width, o).
func (lc *LaneCompiled) keyed(cost *CostModel, width int, o *OptProgram) bool {
	return lc != nil && lc.cost == cost && lc.width == width && lc.opt == o
}

// LaneFallbackAt reports why p cannot run on the lane engine, with the
// offending instruction's index so tooling (glslint's lane rule) can point
// at the source position; pc is -1 and reason "" when p is lane-eligible.
// Forward branches, discard and early return are all fine (they select
// the masked form); only backward branches (lanes could diverge without
// bound — the unroller removes bounded loops, so no generated kernel has
// one) and unimplemented opcodes disqualify. The liveness proofs
// (WritesBeforeReads, OutputsAlwaysWritten) are a separate engine-level
// gate because they concern LaneEnv reuse, not batch execution itself.
func LaneFallbackAt(p *Program) (pc int, reason string) {
	return laneFallbackAt(p.Insts)
}

func laneFallbackAt(insts []Inst) (int, string) {
	for i := range insts {
		in := &insts[i]
		switch in.Op {
		case OpBR, OpBRZ:
			if int(in.Target) <= i {
				return i, fmt.Sprintf("backward branch at pc %d to %d (lanes could diverge without bound)", i, in.Target)
			}
		case OpKIL, OpRET:
			// Per-lane retirement: fine anywhere under a mask.
		default:
			if !laneOpSupported(in.Op) {
				return i, fmt.Sprintf("opcode %s at pc %d has no lane implementation", in.Op, i)
			}
		}
	}
	return -1, ""
}

// StraightLine reports whether every invocation runs every instruction of
// the stream: no real jump, no KIL, and RET only in the final slot. The
// if-lowering in the GLSL back end emits fall-through branches (target =
// next instruction); those are no-ops aside from their cycle cost —
// reading the BRZ condition has no side effect — so they keep the stream
// straight-line. It selects the lane compiler's line form over the masked
// one.
func StraightLine(insts []Inst) bool {
	for i := range insts {
		switch insts[i].Op {
		case OpBR, OpBRZ:
			if int(insts[i].Target) != i+1 {
				return false
			}
		case OpKIL:
			return false
		case OpRET:
			if i != len(insts)-1 {
				return false
			}
		}
	}
	return true
}

// laneOpSupported reports whether compileLaneInst implements op.
func laneOpSupported(op Op) bool {
	switch op {
	case OpNOP, OpRET, OpBR, OpBRZ,
		OpMOV, OpADD, OpSUB, OpMUL, OpDIV, OpMAD, OpMUL24,
		OpDP2, OpDP3, OpDP4, OpMIN, OpMAX, OpCLAMP,
		OpABS, OpSGN, OpFLR, OpCEIL, OpFRC,
		OpRCP, OpRSQ, OpSQRT, OpEX2, OpLG2, OpPOW, OpEXP, OpLOG,
		OpSIN, OpCOS, OpTAN, OpASIN, OpACOS, OpATAN, OpATAN2,
		OpSLT, OpSLE, OpSGT, OpSGE, OpSEQ, OpSNE, OpSEL, OpQUANT, OpTEX:
		return true
	}
	return false
}

// compileLanes translates an instruction stream into lane closures: the
// line form when the stream is straight-line, the masked form otherwise.
// nil when the stream is ineligible (see LaneFallbackAt) or the width is
// out of range. Dead instructions follow the OptProgram contract: their
// cost is still charged and a dead TEX still counts one fetch per live
// lane.
func compileLanes(p *Program, insts []Inst, consts [][4]float32, dead []bool, cost *CostModel, width int) *LaneCompiled {
	if width < 2 || width > MaxLaneWidth {
		return nil
	}
	if pc, _ := laneFallbackAt(insts); pc >= 0 {
		return nil
	}
	lc := &LaneCompiled{prog: p, cost: cost, width: width, masked: !StraightLine(insts)}
	if lc.masked {
		return lc.compileSteps(insts, consts, dead)
	}
	for i := range insts {
		in := &insts[i]
		lc.cyclesPerLane += cost.InstCost(in)
		switch in.Op {
		case OpNOP, OpRET, OpBR, OpBRZ:
			continue // cost-only (fall-through branches verified above)
		}
		if dead != nil && dead[i] {
			if in.Op == OpTEX {
				lc.line = append(lc.line, func(e *LaneEnv) { e.TexFetches += int64(e.N) })
			}
			continue
		}
		fn := lc.compileLaneInst(consts, in)
		if fn == nil {
			return nil
		}
		lc.line = append(lc.line, fn)
	}
	return lc
}

// laneConst appends a constant operand broadcast to a 4*W slab with
// swizzle and negation folded at compile time; the returned laneSrc reads
// it with identity offsets.
func (lc *LaneCompiled) laneConst(consts [][4]float32, s Src) laneSrc {
	w := lc.width
	v := resolveConst(consts, s)
	base := len(lc.cst)
	for c := 0; c < 4; c++ {
		for l := 0; l < w; l++ {
			lc.cst = append(lc.cst, v[c])
		}
	}
	blkRef := &lc.cst
	return laneSrc{
		blk:  func(e *LaneEnv) []float32 { return (*blkRef)[base : base+4*w] },
		offs: [4]int{0, w, 2 * w, 3 * w},
	}
}

// laneBank returns the slab resolver for a register bank operand.
func laneBank(f RegFile, reg, w int) laneBlock {
	base := reg * 4 * w
	end := base + 4*w
	switch f {
	case FileTemp:
		return func(e *LaneEnv) []float32 { return e.Tmp[base:end] }
	case FileUniform:
		return func(e *LaneEnv) []float32 { return e.Uni[base:end] }
	case FileInput:
		return func(e *LaneEnv) []float32 { return e.In[base:end] }
	case FileOutput:
		return func(e *LaneEnv) []float32 { return e.Out[base:end] }
	default:
		return nil
	}
}

// compileLaneSrc resolves one source operand. Negated register sources
// materialise into the env scratch slab for their operand slot (negating
// all four components commutes with the compile-time swizzle offsets), so
// op inner loops read plain float32 slabs in every case.
func (lc *LaneCompiled) compileLaneSrc(consts [][4]float32, s Src, slot int) laneSrc {
	w := lc.width
	if s.File == FileConst {
		return lc.laneConst(consts, s)
	}
	offs := [4]int{
		int(s.Swiz[0]&3) * w, int(s.Swiz[1]&3) * w,
		int(s.Swiz[2]&3) * w, int(s.Swiz[3]&3) * w,
	}
	base := laneBank(s.File, int(s.Reg), w)
	if base == nil {
		// Reads from an unknown bank yield zero, as Env.read does.
		zero := make([]float32, 4*w)
		return laneSrc{blk: func(e *LaneEnv) []float32 { return zero }, offs: offs}
	}
	if !s.Neg {
		return laneSrc{blk: base, offs: offs}
	}
	return laneSrc{
		blk: func(e *LaneEnv) []float32 {
			src := base(e)
			dst := e.scratch[slot]
			_ = dst[len(src)-1]
			for i := range src {
				dst[i] = -src[i]
			}
			return dst
		},
		offs: offs,
	}
}

// laneComp pairs a written destination component offset with the swizzled
// source offsets feeding it.
type laneComp struct {
	d, a, b, c int
}

// activeComps lists the destination components the write mask keeps, with
// each component's source offsets resolved.
func activeComps(w int, mask uint8, a, b, c *laneSrc) []laneComp {
	var out []laneComp
	for ci := 0; ci < 4; ci++ {
		if mask&(1<<uint(ci)) == 0 {
			continue
		}
		t := laneComp{d: ci * w}
		if a != nil {
			t.a = a.offs[ci]
		}
		if b != nil {
			t.b = b.offs[ci]
		}
		if c != nil {
			t.c = c.offs[ci]
		}
		out = append(out, t)
	}
	return out
}

// aliases reports whether a read operand overlaps the destination
// register, requiring the result to be staged so all reads observe
// pre-instruction values (the interpreter reads every source into locals
// before writing).
func aliases(d Dst, s Src, readMask uint8) bool {
	return readMask != 0 && s.File == d.File && s.Reg == d.Reg
}

// compileLaneDst resolves the destination slab. When the destination
// aliases a source, the op writes into scratch slab 3 and a follow-up
// copy closure moves the masked components into the real register; the
// copy is returned as fin (nil when no staging is needed). Writes to
// read-only files are dropped, as Env.write does.
func (lc *LaneCompiled) compileLaneDst(in *Inst) (blk laneBlock, fin laneOp) {
	d := in.Dst
	w := lc.width
	real := laneBank(d.File, int(d.Reg), w)
	if real == nil || (d.File != FileTemp && d.File != FileOutput) {
		drop := make([]float32, 4*w)
		return func(e *LaneEnv) []float32 { return drop }, nil
	}
	if lc.masked {
		// Masked execution must never clobber inactive lanes (they resume
		// at a different pc and will observe these registers), but the op
		// inner loops run over the full width. Always stage into scratch 3
		// and commit only the active lanes.
		return lc.maskedDst(real, d.Mask)
	}
	ra, rb, rc := in.SrcLanes()
	if !aliases(d, in.A, ra) && !aliases(d, in.B, rb) && !aliases(d, in.C, rc) {
		return real, nil
	}
	stage := func(e *LaneEnv) []float32 { return e.scratch[3] }
	mask := d.Mask
	fin = func(e *LaneEnv) {
		src := e.scratch[3]
		dst := real(e)
		for ci := 0; ci < 4; ci++ {
			if mask&(1<<uint(ci)) == 0 {
				continue
			}
			copy(dst[ci*w:ci*w+w], src[ci*w:ci*w+w])
		}
	}
	return stage, fin
}

// withFin chains the alias-staging copy after the op body.
func withFin(op laneOp, fin laneOp) laneOp {
	if fin == nil {
		return op
	}
	return func(e *LaneEnv) {
		op(e)
		fin(e)
	}
}

// compileLaneInst builds the lane closure for one non-control-flow
// instruction. The per-op lane rules (float32 vs float64, expression
// shapes) follow the float-precision audit at the top of this file.
func (lc *LaneCompiled) compileLaneInst(consts [][4]float32, in *Inst) laneOp {
	w := lc.width
	wd, fin := lc.compileLaneDst(in)
	switch in.Op {
	case OpTEX:
		if lc.masked {
			// Fetch counts and sampler calls must be exact per lane, so the
			// masked form has a dedicated body over active lanes only.
			return lc.compileMaskedTex(consts, in)
		}
		ra := lc.compileLaneSrc(consts, in.A, 0)
		sampler := int(in.SamplerIdx)
		uo, vo := ra.offs[0], ra.offs[1]
		// Masked destination components: slab offset plus texel lane index.
		var tcomps []laneComp
		for ci := 0; ci < 4; ci++ {
			if in.Dst.Mask&(1<<uint(ci)) != 0 {
				tcomps = append(tcomps, laneComp{d: ci * w, a: ci})
			}
		}
		return withFin(func(e *LaneEnv) {
			n := e.N
			e.TexFetches += int64(n)
			ab, db := ra.blk(e), wd(e)
			for l := 0; l < n; l++ {
				u, v := ab[uo+l], ab[vo+l]
				var texel Vec4
				if sampler >= 0 && sampler < len(e.Samplers) && e.Samplers[sampler] != nil {
					texel = e.Samplers[sampler](u, v)
				} else if e.Sample != nil {
					texel = e.Sample(sampler, u, v)
				}
				for _, t := range tcomps {
					db[t.d+l] = texel[t.a]
				}
			}
		}, fin)
	case OpMOV:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				copy(db[t.d:t.d+w], ab[t.a:t.a+w])
			}
		}, fin)
	case OpDP2, OpDP3, OpDP4:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		k := 2 + int(in.Op) - int(OpDP2)
		aoffs := ra.offs
		boffs := rb.offs
		comps := activeComps(w, in.Dst.Mask, nil, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, bb, db := ra.blk(e), rb.blk(e), wd(e)
			for l := 0; l < w; l++ {
				var s float32
				for i := 0; i < k; i++ {
					s += ab[aoffs[i]+l] * bb[boffs[i]+l]
				}
				for ci := range comps {
					db[comps[ci].d+l] = s
				}
			}
		}, fin)
	case OpMAD:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		rc := lc.compileLaneSrc(consts, in.C, 2)
		comps := activeComps(w, in.Dst.Mask, &ra, &rb, &rc)
		return withFin(func(e *LaneEnv) {
			ab, bb, cb, db := ra.blk(e), rb.blk(e), rc.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				y := bb[t.b : t.b+w]
				z := cb[t.c : t.c+w]
				for l := range d {
					d[l] = x[l]*y[l] + z[l]
				}
			}
		}, fin)
	case OpMUL24:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		comps := activeComps(w, in.Dst.Mask, &ra, &rb, nil)
		return withFin(func(e *LaneEnv) {
			ab, bb, db := ra.blk(e), rb.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				y := bb[t.b : t.b+w]
				for l := range d {
					d[l] = quant24(x[l]) * quant24(y[l])
				}
			}
		}, fin)
	case OpCLAMP:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		rc := lc.compileLaneSrc(consts, in.C, 2)
		comps := activeComps(w, in.Dst.Mask, &ra, &rb, &rc)
		return withFin(func(e *LaneEnv) {
			ab, bb, cb, db := ra.blk(e), rb.blk(e), rc.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				lo := bb[t.b : t.b+w]
				hi := cb[t.c : t.c+w]
				for l := range d {
					v := x[l]
					if v < lo[l] {
						v = lo[l]
					}
					if v > hi[l] {
						v = hi[l]
					}
					d[l] = v
				}
			}
		}, fin)
	case OpSEL:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		rb := lc.compileLaneSrc(consts, in.B, 1)
		rc := lc.compileLaneSrc(consts, in.C, 2)
		comps := activeComps(w, in.Dst.Mask, &ra, &rb, &rc)
		return withFin(func(e *LaneEnv) {
			ab, bb, cb, db := ra.blk(e), rb.blk(e), rc.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				y := bb[t.b : t.b+w]
				z := cb[t.c : t.c+w]
				for l := range d {
					if x[l] != 0 {
						d[l] = y[l]
					} else {
						d[l] = z[l]
					}
				}
			}
		}, fin)
	case OpADD:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = x[l] + y[l]
			}
		})
	case OpSUB:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = x[l] - y[l]
			}
		})
	case OpMUL:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = x[l] * y[l]
			}
		})
	case OpDIV:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = x[l] / y[l]
			}
		})
	case OpMIN:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = min32(x[l], y[l])
			}
		})
	case OpMAX:
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = max32(x[l], y[l])
			}
		})
	case OpSLT:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x < y })
	case OpSLE:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x <= y })
	case OpSGT:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x > y })
	case OpSGE:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x >= y })
	case OpSEQ:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x == y })
	case OpSNE:
		return lc.laneCmp(consts, in, fin, wd, func(x, y float32) bool { return x != y })
	case OpRCP:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				for l := range d {
					d[l] = 1 / x[l]
				}
			}
		}, fin)
	case OpQUANT:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				for l := range d {
					d[l] = QuantizeChannel(x[l])
				}
			}
		}, fin)
	case OpSGN:
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				for l := range d {
					v := x[l]
					switch {
					case v > 0:
						d[l] = 1
					case v < 0:
						d[l] = -1
					default:
						d[l] = 0
					}
				}
			}
		}, fin)
	case OpABS, OpFLR, OpCEIL, OpFRC, OpRSQ, OpSQRT, OpEX2, OpLG2,
		OpEXP, OpLOG, OpSIN, OpCOS, OpTAN, OpASIN, OpACOS, OpATAN:
		f := f64Unary(in.Op)
		ra := lc.compileLaneSrc(consts, in.A, 0)
		comps := activeComps(w, in.Dst.Mask, &ra, nil, nil)
		return withFin(func(e *LaneEnv) {
			ab, db := ra.blk(e), wd(e)
			for _, t := range comps {
				d := db[t.d : t.d+w : t.d+w]
				x := ab[t.a : t.a+w]
				for l := range d {
					d[l] = float32(f(float64(x[l])))
				}
			}
		}, fin)
	case OpPOW, OpATAN2:
		f := math64Pow
		if in.Op == OpATAN2 {
			f = math64Atan2
		}
		return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
			for l := range d {
				d[l] = float32(f(float64(x[l]), float64(y[l])))
			}
		})
	}
	return nil
}

// laneBin compiles a two-source componentwise op with the inner loop body
// supplied by the caller; the body sees exact-length slabs so every index
// is bounds-check free.
func (lc *LaneCompiled) laneBin(consts [][4]float32, in *Inst, fin laneOp, wd laneBlock, body func(d, x, y []float32)) laneOp {
	w := lc.width
	ra := lc.compileLaneSrc(consts, in.A, 0)
	rb := lc.compileLaneSrc(consts, in.B, 1)
	comps := activeComps(w, in.Dst.Mask, &ra, &rb, nil)
	return withFin(func(e *LaneEnv) {
		ab, bb, db := ra.blk(e), rb.blk(e), wd(e)
		for _, t := range comps {
			body(db[t.d:t.d+w:t.d+w], ab[t.a:t.a+w], bb[t.b:t.b+w])
		}
	}, fin)
}

// laneCmp compiles a comparison op (result 1.0/0.0 per lane).
func (lc *LaneCompiled) laneCmp(consts [][4]float32, in *Inst, fin laneOp, wd laneBlock, cmp func(x, y float32) bool) laneOp {
	return lc.laneBin(consts, in, fin, wd, func(d, x, y []float32) {
		for l := range d {
			if cmp(x[l], y[l]) {
				d[l] = 1
			} else {
				d[l] = 0
			}
		}
	})
}

// f64Unary maps a unary transcendental opcode to its interpreter float64
// function, the same table compileInst uses.
func f64Unary(op Op) func(float64) float64 {
	switch op {
	case OpABS:
		return math.Abs
	case OpFLR:
		return math.Floor
	case OpCEIL:
		return math.Ceil
	case OpFRC:
		return func(x float64) float64 { return x - math.Floor(x) }
	case OpRSQ:
		return func(x float64) float64 { return 1 / math.Sqrt(x) }
	case OpSQRT:
		return math.Sqrt
	case OpEX2:
		return math.Exp2
	case OpLG2:
		return math.Log2
	case OpEXP:
		return math.Exp
	case OpLOG:
		return math.Log
	case OpSIN:
		return math.Sin
	case OpCOS:
		return math.Cos
	case OpTAN:
		return math.Tan
	case OpASIN:
		return math.Asin
	case OpACOS:
		return math.Acos
	default:
		return math.Atan
	}
}

var (
	math64Pow   = math.Pow
	math64Atan2 = math.Atan2
)

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
