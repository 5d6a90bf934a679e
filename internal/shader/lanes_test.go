package shader

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential testing of the lane-batched (SoA) backend against the
// reference interpreter: a batch of N lanes must produce, for every lane,
// bit-identical outputs to a serial interpreter invocation with the same
// inputs, and the batch's Cycles/TexFetches deltas must equal the serial
// sums. Banks compare with diffBank: sign of zero matters, all NaNs form
// one equivalence class.

// runLaneDiff lane-compiles p at width, checks the compiler picked the
// line form exactly for straight-line streams, and diffs a batch of n
// lanes against the interpreter (diffLanes).
func runLaneDiff(t *testing.T, p *Program, cost *CostModel, width, n int, uni []Vec4, inputs [][]Vec4) {
	t.Helper()
	lc := p.LaneCompiled(cost, width)
	if lc == nil {
		_, reason := LaneFallbackAt(p)
		t.Fatalf("lane-eligible program did not compile (reason: %q):\n%s", reason, p.Disassemble())
	}
	if lc.Masked() == StraightLine(p.Insts) {
		t.Fatalf("masked=%v for a program with StraightLine=%v:\n%s", lc.Masked(), !lc.Masked(), p.Disassemble())
	}
	diffLanes(t, p, lc, cost, width, n, uni, inputs)
}

// runSteppedDiff forces the masked (stepped) form whatever the stream's
// shape, so straight-line programs exercise it too, and diffs it.
func runSteppedDiff(t *testing.T, p *Program, cost *CostModel, width, n int, uni []Vec4, inputs [][]Vec4) {
	t.Helper()
	lc := (&LaneCompiled{prog: p, cost: cost, width: width, masked: true}).compileSteps(p.Insts, p.Consts, nil)
	if lc == nil {
		t.Fatalf("program did not compile to the masked form:\n%s", p.Disassemble())
	}
	diffLanes(t, p, lc, cost, width, n, uni, inputs)
}

// diffLanes executes p serially (interpreter, one fresh Env per lane) and
// as one batch of lc, then compares per-lane outputs, Discarded flags and
// summed counters. uni is broadcast to all lanes, inputs[lane] feeds
// lane's input bank. n may be less than width (partial batch).
func diffLanes(t *testing.T, p *Program, lc *LaneCompiled, cost *CostModel, width, n int, uni []Vec4, inputs [][]Vec4) {
	t.Helper()
	le := NewLaneEnv(p, width)
	le.Sample = diffSampler
	le.SetUniforms(uni)
	var wantOut [][]Vec4
	var wantDiscard []bool
	var wantCycles, wantTex int64
	for lane := 0; lane < n; lane++ {
		e := NewEnv(p)
		e.Sample = diffSampler
		copy(e.Uniforms, uni)
		copy(e.Inputs, inputs[lane])
		if err := Run(p, e, cost); err != nil {
			t.Fatalf("interp lane %d: %v", lane, err)
		}
		wantOut = append(wantOut, append([]Vec4(nil), e.Outputs...))
		wantDiscard = append(wantDiscard, e.Discarded)
		wantCycles += e.Cycles
		wantTex += e.TexFetches
		for reg, v := range inputs[lane] {
			le.SetInput(lane, reg, v)
		}
	}

	le.N = n
	lc.Run(le)
	if le.Cycles != wantCycles {
		t.Fatalf("Cycles divergence: serial %d, lanes %d (masked=%v w=%d n=%d)\n%s",
			wantCycles, le.Cycles, lc.Masked(), width, n, p.Disassemble())
	}
	if le.TexFetches != wantTex {
		t.Fatalf("TexFetches divergence: serial %d, lanes %d (masked=%v w=%d n=%d)\n%s",
			wantTex, le.TexFetches, lc.Masked(), width, n, p.Disassemble())
	}
	for lane := 0; lane < n; lane++ {
		if le.Discarded[lane] != wantDiscard[lane] {
			t.Fatalf("lane %d Discarded divergence: serial %v, lanes %v (masked=%v w=%d n=%d)\n%s",
				lane, wantDiscard[lane], le.Discarded[lane], lc.Masked(), width, n, p.Disassemble())
		}
		// Outputs are compared even for discarded lanes: the masked form
		// executes exactly the interpreter's prefix for that lane, so the
		// partially-written output bank must match too.
		got := make([]Vec4, len(wantOut[lane]))
		for reg := range got {
			got[reg] = le.Output(lane, reg)
		}
		diffBank(t, p, fmt.Sprintf("lane %d (masked=%v w=%d n=%d) output", lane, lc.Masked(), width, n),
			wantOut[lane], got)
	}
}

// fuzzInputs builds per-lane input banks from the shared fuzz value
// distribution (±0, infinities, integers, fractions).
func fuzzInputs(rng *rand.Rand, p *Program, n int) (uni []Vec4, inputs [][]Vec4) {
	uni = make([]Vec4, maxi(p.NumUniform, 1))
	for i := range uni {
		uni[i] = Vec4{fuzzValue(rng), fuzzValue(rng), fuzzValue(rng), fuzzValue(rng)}
	}
	for lane := 0; lane < n; lane++ {
		in := make([]Vec4, maxi(p.NumInputs, 1))
		for i := range in {
			in[i] = Vec4{fuzzValue(rng), fuzzValue(rng), fuzzValue(rng), fuzzValue(rng)}
		}
		inputs = append(inputs, in)
	}
	return uni, inputs
}

// TestDifferentialLaneFuzz drives 320 quick-generated seeds through
// randomized straight-line IR programs (the full ALU + TEX opcode set,
// random swizzles/negation/write masks, const-pool and out-of-range const
// reads) at random widths with random live-lane counts, including partial
// batches. Every lane must match a serial interpreter run bitwise.
func TestDifferentialLaneFuzz(t *testing.T) {
	cost := DefaultCostModel()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng, false) // straight-line only: lane-eligible
		width := 2 + rng.Intn(MaxLaneWidth-1)
		for probe := 0; probe < 2; probe++ {
			n := 1 + rng.Intn(width)
			uni, inputs := fuzzInputs(rng, p, n)
			runLaneDiff(t, p, &cost, width, n, uni, inputs)
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 320,
		Rand:     rand.New(rand.NewSource(20260808)),
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialLaneKernelSuite runs every generated kernel through the
// lane compiler at the supported widths. Every kernel is eligible: the
// straight-line ones take the line form, and jacobi — whose boundary
// ternary lowers to real branches — takes the masked form.
func TestDifferentialLaneKernelSuite(t *testing.T) {
	cost := DefaultCostModel()
	rng := rand.New(rand.NewSource(20260808))
	for name, p := range kernelSuite(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			if _, reason := LaneFallbackAt(p); reason != "" {
				t.Fatalf("kernel unexpectedly ineligible: %s", reason)
			}
			if (name == "jacobi/fp32" || name == "jacobi/fp24") == StraightLine(p.Insts) {
				t.Fatal("jacobi alone among the kernels has real branches")
			}
			for _, width := range []int{2, 4, 8, 16} {
				for _, n := range []int{1, width / 2, width} {
					if n < 1 {
						n = 1
					}
					uni := make([]Vec4, maxi(p.NumUniform, 1))
					for i := range uni {
						uni[i] = Vec4{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
					}
					var inputs [][]Vec4
					for lane := 0; lane < n; lane++ {
						in := make([]Vec4, maxi(p.NumInputs, 1))
						for i := range in {
							in[i] = Vec4{rng.Float32() * 16, rng.Float32() * 16, 0.5, 1}
						}
						inputs = append(inputs, in)
					}
					runLaneDiff(t, p, &cost, width, n, uni, inputs)
				}
			}
		})
	}
}

// TestLaneKernelsCompileForm pins the form the lane compiler picks for
// every generated kernel at the default width: the straight-line ones
// take the line form with the whole per-invocation cycle cost
// precomputed, and jacobi — whose boundary branches preclude it — takes
// the masked form.
func TestLaneKernelsCompileForm(t *testing.T) {
	cost := DefaultCostModel()
	for name, p := range kernelSuite(t) {
		lc := p.LaneCompiled(&cost, DefaultLaneWidth)
		if lc == nil {
			t.Fatalf("%s: did not lane-compile", name)
		}
		jacobi := name == "jacobi/fp32" || name == "jacobi/fp24"
		if lc.Masked() != jacobi {
			t.Errorf("%s: masked=%v, only jacobi takes the masked form", name, lc.Masked())
			continue
		}
		if want := cost.StaticCycles(p); !jacobi && lc.cyclesPerLane != want {
			t.Errorf("%s: line form precomputes %d cycles per lane, want StaticCycles %d", name, lc.cyclesPerLane, want)
		}
	}
}

// TestLaneSpecialValues pins per-lane propagation of the numeric edge
// cases — NaN, ±Inf, −0 — through representative f32-native ops (the
// min32/max32 special-case order, signed-zero selection, NaN collapse)
// with different special values in different lanes of one batch.
func TestLaneSpecialValues(t *testing.T) {
	cost := DefaultCostModel()
	p := &Program{
		NumTemps: 2, NumInputs: 2, NumOutputs: 2, NumUniform: 1,
		Insts: []Inst{
			{Op: OpADD, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 1)},
			{Op: OpMIN, Dst: DstReg(FileTemp, 1, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 1)},
			{Op: OpMAX, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileTemp, 0), B: SrcReg(FileTemp, 1)},
			{Op: OpMUL, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 1)},
			{Op: OpSGN, Dst: DstReg(FileOutput, 1, 4), A: SrcReg(FileTemp, 0)},
			{Op: OpRET},
		},
	}
	nan := float32(math.NaN())
	pinf := float32(math.Inf(1))
	ninf := float32(math.Inf(-1))
	nzero := float32(math.Copysign(0, -1))
	inputs := [][]Vec4{
		{{nan, 1, pinf, nzero}, {2, nan, ninf, 0}},
		{{pinf, ninf, nan, nan}, {ninf, pinf, nan, 1}},
		{{nzero, 0, nzero, nzero}, {0, nzero, nzero, 0}},
		{{1, -1, 0.5, -0.5}, {-1, 1, -0.5, 0.5}},
	}
	uni := []Vec4{{0, 0, 0, 0}}
	for _, width := range []int{4, 8} {
		runLaneDiff(t, p, &cost, width, len(inputs), uni, inputs)
	}
}

// TestLanePartialBatch covers live-lane counts that do not divide the
// width (the tail batch of a tile walk): every n in [1, width].
func TestLanePartialBatch(t *testing.T) {
	cost := DefaultCostModel()
	rng := rand.New(rand.NewSource(7))
	p := randomProgram(rng, false)
	const width = 8
	for n := 1; n <= width; n++ {
		uni, inputs := fuzzInputs(rng, p, n)
		runLaneDiff(t, p, &cost, width, n, uni, inputs)
	}
}

// TestLaneIneligible pins each clause that keeps a program out of the
// line form: a real branch, discard and early RET select the masked form
// instead, while branchless fall-through jumps stay in the line form.
func TestLaneIneligible(t *testing.T) {
	cost := DefaultCostModel()
	mov := Inst{Op: OpMOV, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileInput, 0)}
	cases := []struct {
		name  string
		insts []Inst
		line  bool
	}{
		{"real-branch", []Inst{{Op: OpBR, Target: 2}, mov, {Op: OpRET}}, false},
		{"real-brz", []Inst{{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 2}, mov, mov, {Op: OpRET}}, false},
		{"discard", []Inst{{Op: OpKIL, A: SrcReg(FileInput, 0)}, mov, {Op: OpRET}}, false},
		{"early-ret", []Inst{{Op: OpRET}, mov}, false},
		{"fallthrough-br", []Inst{{Op: OpBR, Target: 1}, mov, {Op: OpRET}}, true},
		{"fallthrough-brz", []Inst{{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 1}, mov, {Op: OpRET}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{NumTemps: 1, NumInputs: 1, NumOutputs: 1, NumUniform: 1, Insts: tc.insts}
			if got := StraightLine(p.Insts); got != tc.line {
				t.Fatalf("StraightLine = %v, want %v", got, tc.line)
			}
			lc := p.LaneCompiled(&cost, 8)
			if lc == nil {
				_, reason := LaneFallbackAt(p)
				t.Fatalf("expected eligible, got fallback: %s", reason)
			}
			if lc.Masked() == tc.line {
				t.Fatalf("masked=%v, want the line form %v", lc.Masked(), tc.line)
			}
		})
	}
}

// TestLaneCompiledCache pins the lazy one-entry cache: the same cost
// model and width return the same LaneCompiled, and a different cost
// model recompiles with the new costs.
func TestLaneCompiledCache(t *testing.T) {
	cost1, cost2 := DefaultCostModel(), DefaultCostModel()
	cost2.Costs[OpMOV] = 9
	p := &Program{NumTemps: 1, NumOutputs: 1, Insts: []Inst{
		{Op: OpMOV, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileTemp, 0)},
	}}
	a := p.LaneCompiled(&cost1, DefaultLaneWidth)
	if a == nil || p.LaneCompiled(&cost1, DefaultLaneWidth) != a {
		t.Fatal("same cost model and width must return the cached LaneCompiled")
	}
	b := p.LaneCompiled(&cost2, DefaultLaneWidth)
	if b == nil || b == a {
		t.Fatal("different cost model must recompile")
	}
	if a.cyclesPerLane == b.cyclesPerLane {
		t.Fatal("recompile must pick up the new costs")
	}
}

// TestLaneDstAliasing pins the staged-write path: an instruction whose
// destination register is also a source must see pre-instruction values
// for every component (the interpreter reads sources into locals first).
func TestLaneDstAliasing(t *testing.T) {
	cost := DefaultCostModel()
	swap := Src{File: FileTemp, Reg: 0, Swiz: [4]uint8{1, 0, 3, 2}}
	p := &Program{
		NumTemps: 1, NumInputs: 1, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{
			{Op: OpMOV, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0)},
			// r0 = r0.yxwz — every written component reads another one.
			{Op: OpMOV, Dst: DstReg(FileTemp, 0, 4), A: swap},
			// r0.xy += r0.yx with a partial mask: masked-out components
			// must keep their (already swapped) values.
			{Op: OpADD, Dst: Dst{File: FileTemp, Reg: 0, Mask: 0x3}, A: SrcReg(FileTemp, 0), B: swap},
			{Op: OpMOV, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileTemp, 0)},
			{Op: OpRET},
		},
	}
	inputs := [][]Vec4{
		{{1, 2, 3, 4}},
		{{-1, 0.5, -0.25, 8}},
		{{0, float32(math.Copysign(0, -1)), 1, -1}},
	}
	runLaneDiff(t, p, &cost, 4, len(inputs), []Vec4{{}}, inputs)
}

// TestLaneEnvPoolReuse pins pooling behaviour: Get returns a previously
// Put environment (no reallocation), sized for the pool's width.
func TestLaneEnvPoolReuse(t *testing.T) {
	p := &Program{NumTemps: 1, NumInputs: 1, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{{Op: OpRET}}}
	pool := NewLaneEnvPool(p, 8)
	e1 := pool.Get()
	if e1.Width != 8 {
		t.Fatalf("pool env width %d, want 8", e1.Width)
	}
	pool.Put(e1)
	if e2 := pool.Get(); e2 != e1 {
		t.Fatal("pool must reuse returned environments")
	}
}

// TestLaneRunAllocs asserts the lane executor's per-batch hot path —
// SetInput gather, Run (including TEX fetches), Output scatter — performs
// zero heap allocations once the compiled form and environment exist.
func TestLaneRunAllocs(t *testing.T) {
	cost := DefaultCostModel()
	p := &Program{
		NumTemps: 2, NumInputs: 1, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{
			{Op: OpTEX, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0)},
			{Op: OpMAD, Dst: DstReg(FileTemp, 1, 4), A: SrcReg(FileTemp, 0), B: SrcReg(FileUniform, 0), C: SrcReg(FileInput, 0)},
			{Op: OpMUL, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileTemp, 1), B: Src{File: FileTemp, Reg: 0, Swiz: [4]uint8{3, 2, 1, 0}, Neg: true}},
			{Op: OpRET},
		},
	}
	const width = 8
	lc := p.LaneCompiled(&cost, width)
	if lc == nil {
		t.Fatal("program must lane-compile")
	}
	env := NewLaneEnv(p, width)
	env.Samplers = []TexFunc{func(u, v float32) Vec4 { return Vec4{u, v, u + v, 1} }}
	in := Vec4{0.25, 0.5, 0.75, 1}
	var sink Vec4
	allocs := testing.AllocsPerRun(200, func() {
		for l := 0; l < width; l++ {
			env.SetInput(l, 0, in)
		}
		env.N = width
		lc.Run(env)
		sink = env.Output(width-1, 0)
	})
	if allocs != 0 {
		t.Fatalf("lane hot path allocated %.1f times per batch, want 0", allocs)
	}
	_ = sink
}
