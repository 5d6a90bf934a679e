package shader

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential testing of the masked (stepped) lane form against the
// reference interpreter: a batch of N lanes with forward branches, discard
// and early return must produce, for every lane, bit-identical outputs,
// the same Discarded flag, and summed Cycles/TexFetches equal to N serial
// interpreter invocations — divergence and all. The diff helpers live in
// lanes_test.go.

// TestDifferentialMaskedLaneFuzz drives 400 quick-generated seeds through
// randomized IR programs *with* control flow — forward BR/BRZ, KIL, early
// RET, the exact shape class the straight-line engine refuses — at random
// widths and live-lane counts. Every lane must match a serial interpreter
// run bitwise, including the Discarded flag and per-lane-summed counters,
// and the compiler must pick the masked form exactly for branchy streams.
func TestDifferentialMaskedLaneFuzz(t *testing.T) {
	cost := DefaultCostModel()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng, true) // forward branches, KIL, early RET
		width := 2 + rng.Intn(MaxLaneWidth-1)
		for probe := 0; probe < 2; probe++ {
			n := 1 + rng.Intn(width)
			uni, inputs := fuzzInputs(rng, p, n)
			runLaneDiff(t, p, &cost, width, n, uni, inputs)
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 400,
		Rand:     rand.New(rand.NewSource(20260808)),
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialMaskedStraightLine pins that the masked form is also
// correct on straight-line programs (all lanes stay active throughout):
// the compiler picks the line form there, but the masked form must not
// depend on divergence actually occurring.
func TestDifferentialMaskedStraightLine(t *testing.T) {
	cost := DefaultCostModel()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng, false)
		width := 2 + rng.Intn(MaxLaneWidth-1)
		n := 1 + rng.Intn(width)
		uni, inputs := fuzzInputs(rng, p, n)
		runSteppedDiff(t, p, &cost, width, n, uni, inputs)
		return true
	}
	cfg := &quick.Config{
		MaxCount: 80,
		Rand:     rand.New(rand.NewSource(8)),
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialMaskedKernelSuite forces every generated kernel through
// the masked form, straight-line ones included, so the form is exercised
// on the full opcode mix the compiler emits, not only on jacobi.
func TestDifferentialMaskedKernelSuite(t *testing.T) {
	cost := DefaultCostModel()
	rng := rand.New(rand.NewSource(20260808))
	for name, p := range kernelSuite(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			for _, width := range []int{2, 8, 16} {
				for _, n := range []int{1, width/2 + 1, width} {
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
					runSteppedDiff(t, p, &cost, width, n, uni, inputs)
				}
			}
		})
	}
}

// TestMaskedDivergencePinned pins a hand-built divergence scenario where
// different lanes take each path of a BRZ, one lane discards, and one lane
// early-returns — the masked form's whole feature matrix in one batch.
func TestMaskedDivergencePinned(t *testing.T) {
	cost := DefaultCostModel()
	p := &Program{
		NumTemps: 2, NumInputs: 2, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{
			// if (in0.x == 0) goto else-branch (pc 4)
			{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 4},
			{Op: OpKIL, A: SrcReg(FileInput, 1)},                                                         // then: maybe discard
			{Op: OpMUL, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 0)}, // then: out = in0²
			{Op: OpBR, Target: 6}, // skip else
			{Op: OpADD, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileInput, 0), B: SrcReg(FileInput, 1)}, // else: out = in0+in1
			{Op: OpTEX, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 1)},                            // else-only fetch
			{Op: OpBRZ, A: SrcReg(FileInput, 1), Target: 8},                                              // join: maybe early ret
			{Op: OpRET},
			{Op: OpMOV, Dst: Dst{File: FileOutput, Reg: 0, Mask: 0x8}, A: SrcReg(FileUniform, 0)},
			{Op: OpRET},
		},
	}
	inputs := [][]Vec4{
		{{1, 0, 0, 0}, {0, 0, 0, 0}},  // then-path, no discard, early ret
		{{0, 0, 0, 0}, {0, 0, 0, 0}},  // else-path (TEX), early ret
		{{2, 0, 0, 0}, {1, 0, 0, 0}},  // then-path, discards at pc 1
		{{0, 0, 0, 0}, {3, 0, 0, 0}},  // else-path, runs to the end
		{{-1, 0, 0, 0}, {2, 0, 0, 0}}, // then-path, discards
		{{5, 0, 0, 0}, {0, 5, 0, 0}},  // then-path, no discard (cond reads .x)
	}
	uni := []Vec4{{0.25, 0.5, 0.75, 1}}
	for _, width := range []int{6, 8, 16} {
		runLaneDiff(t, p, &cost, width, len(inputs), uni, inputs)
	}
}

// TestMaskedIneligible pins the lane compiler's one eligibility rule:
// backward branches are out (unbounded divergence), while forward jumps,
// discard and early RET are eligible in the masked form. TestLaneIneligible
// pins which programs keep the line form.
func TestMaskedIneligible(t *testing.T) {
	cost := DefaultCostModel()
	mov := Inst{Op: OpMOV, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileInput, 0)}
	cases := []struct {
		name     string
		insts    []Inst
		eligible bool
	}{
		{"forward-br", []Inst{{Op: OpBR, Target: 2}, mov, {Op: OpRET}}, true},
		{"forward-brz", []Inst{{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 2}, mov, mov, {Op: OpRET}}, true},
		{"discard", []Inst{{Op: OpKIL, A: SrcReg(FileInput, 0)}, mov, {Op: OpRET}}, true},
		{"early-ret", []Inst{{Op: OpRET}, mov}, true},
		{"self-loop", []Inst{mov, {Op: OpBR, Target: 1}, {Op: OpRET}}, false},
		{"backward-brz", []Inst{mov, {Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 0}, {Op: OpRET}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{NumTemps: 1, NumInputs: 1, NumOutputs: 1, NumUniform: 1, Insts: tc.insts}
			lc := p.LaneCompiled(&cost, 8)
			_, reason := LaneFallbackAt(p)
			switch {
			case !tc.eligible:
				if lc != nil {
					t.Fatal("expected lane-ineligible")
				}
				if reason == "" {
					t.Fatal("ineligible program must report a reason")
				}
			case lc == nil:
				t.Fatalf("expected eligible, got fallback: %s", reason)
			case reason != "":
				t.Fatalf("eligible program reported reason %q", reason)
			case !lc.Masked():
				t.Fatal("eligible program must compile to the masked form")
			}
		})
	}
}

// TestMaskedRunAllocs asserts the masked hot path allocates nothing per
// batch once compiled — the active-lane scan and staging reuse LaneEnv
// scratch state.
func TestMaskedRunAllocs(t *testing.T) {
	cost := DefaultCostModel()
	p := &Program{
		NumTemps: 2, NumInputs: 1, NumOutputs: 1, NumUniform: 1,
		Insts: []Inst{
			{Op: OpBRZ, A: SrcReg(FileInput, 0), Target: 3},
			{Op: OpTEX, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileInput, 0)},
			{Op: OpBR, Target: 4},
			{Op: OpMOV, Dst: DstReg(FileTemp, 0, 4), A: SrcReg(FileUniform, 0)},
			{Op: OpMUL, Dst: DstReg(FileOutput, 0, 4), A: SrcReg(FileTemp, 0), B: SrcReg(FileInput, 0)},
			{Op: OpRET},
		},
	}
	const width = 8
	lc := p.LaneCompiled(&cost, width)
	if lc == nil || !lc.Masked() {
		t.Fatal("program must compile to the masked form")
	}
	env := NewLaneEnv(p, width)
	env.Samplers = []TexFunc{func(u, v float32) Vec4 { return Vec4{u, v, u + v, 1} }}
	var sink Vec4
	allocs := testing.AllocsPerRun(200, func() {
		for l := 0; l < width; l++ {
			v := float32(l & 1) // alternate branch paths within the batch
			env.SetInput(l, 0, Vec4{v, 0.5, 0.75, 1})
		}
		env.N = width
		lc.Run(env)
		sink = env.Output(width-1, 0)
	})
	if allocs != 0 {
		t.Fatalf("masked hot path allocated %.1f times per batch, want 0", allocs)
	}
	_ = sink
}
