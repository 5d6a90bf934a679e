package analysis

import (
	"math"
	"math/rand"
	"testing"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/shader"
)

func TestOptimizeConstFoldAndDCE(t *testing.T) {
	// mov r0, c0 ; mul r1, r0, r0 (unused) ; add o0, r0, r0
	p := &shader.Program{
		Insts: []shader.Inst{
			mov(dtemp(0), cnst(0)),
			{Op: shader.OpMUL, Dst: dtemp(1), A: temp(0), B: temp(0)},
			{Op: shader.OpADD, Dst: shader.DstReg(shader.FileOutput, 0, 4), A: temp(0), B: temp(0)},
		},
		Consts:     [][4]float32{{1, 2, 3, 4}},
		NumTemps:   2,
		NumOutputs: 1,
	}
	o := Optimize(p)
	if o == nil {
		t.Fatal("Optimize returned nil")
	}
	if err := p.SetOptimized(o); err != nil {
		t.Fatalf("SetOptimized: %v", err)
	}
	if o.FoldedConsts == 0 {
		t.Errorf("expected constant folds, got none")
	}
	// The ADD's operands become constants, making both r0's MOV and the
	// unused MUL dead.
	if !o.Dead[0] || !o.Dead[1] {
		t.Errorf("Dead = %v, want instructions 0 and 1 dead", o.Dead)
	}
	if o.Dead[2] {
		t.Errorf("output write must stay live")
	}
	if o.Insts[2].A.File != shader.FileConst {
		t.Errorf("ADD operand not folded: %s", o.Insts[2].A)
	}
}

func TestOptimizeCopyPropagation(t *testing.T) {
	// mov r0, u0.yxzw ; add o0, r0.xxyy, c0 — the use composes swizzles:
	// r0.xxyy through u0.yxzw reads u0.yyxx.
	src := shader.SrcReg(shader.FileUniform, 0)
	src.Swiz = [4]uint8{1, 0, 2, 3}
	use := temp(0)
	use.Swiz = [4]uint8{0, 0, 1, 1}
	p := &shader.Program{
		Insts: []shader.Inst{
			mov(dtemp(0), src),
			{Op: shader.OpADD, Dst: shader.DstReg(shader.FileOutput, 0, 4), A: use, B: cnst(0)},
		},
		Consts:     [][4]float32{{1, 1, 1, 1}},
		NumTemps:   1,
		NumOutputs: 1,
		NumUniform: 1,
	}
	o := Optimize(p)
	if o.PropagatedSrcs == 0 {
		t.Fatalf("expected copy propagation, stats: %+v", o)
	}
	got := o.Insts[1].A
	if got.File != shader.FileUniform || got.Reg != 0 {
		t.Fatalf("operand not redirected to the uniform: %s", got)
	}
	want := [4]uint8{1, 1, 0, 0}
	if got.Swiz != want {
		t.Errorf("composed swizzle = %v, want %v", got.Swiz, want)
	}
	if !o.Dead[0] {
		t.Errorf("bypassed MOV should be dead")
	}
	// Differential: the rewritten program computes identical bits.
	cost := shader.DefaultCostModel()
	if err := p.SetOptimized(o); err != nil {
		t.Fatalf("SetOptimized: %v", err)
	}
	envA, envB := shader.NewEnv(p), shader.NewEnv(p)
	envA.Uniforms[0] = shader.Vec4{10, 20, 30, 40}
	envB.Uniforms[0] = shader.Vec4{10, 20, 30, 40}
	if err := shader.Run(p, envA, &cost); err != nil {
		t.Fatal(err)
	}
	if err := shader.RunOptimized(p, envB, &cost); err != nil {
		t.Fatal(err)
	}
	if envA.Outputs[0] != envB.Outputs[0] {
		t.Errorf("outputs differ: %v vs %v", envA.Outputs[0], envB.Outputs[0])
	}
	if envA.Cycles != envB.Cycles {
		t.Errorf("cycles differ: %d vs %d", envA.Cycles, envB.Cycles)
	}
}

func TestOptimizeNeverTouchesShape(t *testing.T) {
	for _, k := range kernelSuite(t) {
		o := Optimize(k.prog)
		if o == nil {
			continue
		}
		if err := k.prog.SetOptimized(o); err != nil {
			t.Errorf("%s: contract violation: %v", k.name, err)
		}
	}
}

// testKernel pairs a compiled program with a name for diagnostics.
type testKernel struct {
	name string
	prog *shader.Program
}

// kernelSuite compiles the paper's kernels plus hand-written control-flow
// and discard shaders — the corpus every differential test runs over.
func kernelSuite(t *testing.T) []testKernel {
	t.Helper()
	var ks []testKernel
	add := func(name, src string) {
		ks = append(ks, testKernel{name, compileGLSL(t, src)})
	}
	add("sum", kernels.Sum(kernels.DefaultOptions))
	add("sum-fp24", kernels.Sum(kernels.FP24Options))
	add("saxpy", kernels.Saxpy(kernels.DefaultOptions))
	add("transpose", kernels.Transpose(kernels.DefaultOptions))
	add("conv3x3", kernels.Conv3x3(16, 16, kernels.DefaultOptions))
	add("jacobi", kernels.Jacobi(16, 16, kernels.DefaultOptions))
	if src, err := kernels.SgemmPass(64, 8, kernels.DefaultOptions); err == nil {
		add("sgemm-64-8", src)
	} else {
		t.Fatalf("sgemm: %v", err)
	}
	if src, err := kernels.Reduce2x2(16, kernels.DefaultOptions); err == nil {
		add("reduce", src)
	} else {
		t.Fatalf("reduce: %v", err)
	}
	add("branchy-discard", `
precision mediump float;
uniform float u0;
uniform sampler2D text0;
varying vec2 v_tex;
void main() {
	if (v_tex.x < 0.25) {
		discard;
	}
	float t = u0 * v_tex.x;
	float unused = t * 3.0;
	vec2 a = v_tex * 2.0;
	float s = texture2D(text0, a).x;
	if (u0 > 0.5) {
		s = s + t;
	} else {
		s = s - t;
	}
	gl_FragColor = vec4(s, a.y, u0, 1.0);
}
`)
	// Vertex stage exercises the other compilation path.
	cs, err := glsl.Frontend(kernels.VertexShader, glsl.CompileOptions{Stage: glsl.StageVertex})
	if err != nil {
		t.Fatalf("vertex frontend: %v", err)
	}
	vp, err := shader.Compile(cs)
	if err != nil {
		t.Fatalf("vertex compile: %v", err)
	}
	ks = append(ks, testKernel{"vertex-quad", vp})
	return ks
}

// fillEnv populates an Env deterministically from rng and installs a
// deterministic sampler.
func fillEnv(env *shader.Env, rng *rand.Rand) {
	for i := range env.Uniforms {
		for c := 0; c < 4; c++ {
			env.Uniforms[i][c] = rng.Float32()
		}
	}
	for i := range env.Inputs {
		for c := 0; c < 4; c++ {
			env.Inputs[i][c] = rng.Float32()
		}
	}
	env.Sample = func(idx int, u, v float32) shader.Vec4 {
		// A cheap deterministic hash of the arguments.
		h := math.Float32bits(u)*2654435761 + math.Float32bits(v)*40503 + uint32(idx)*97
		f := func(s uint32) float32 { return float32((h>>s)&0xFF) / 255 }
		return shader.Vec4{f(0), f(8), f(16), f(24)}
	}
}

// TestPassParity is the core differential harness: for every kernel and
// many random invocations, the interpreter with and without the passes
// must agree bit-for-bit on outputs and exactly on Cycles, TexFetches and
// Discarded.
func TestPassParity(t *testing.T) {
	const invocations = 64
	cost := shader.DefaultCostModel()
	for _, k := range kernelSuite(t) {
		p := k.prog
		if o := Optimize(p); o != nil {
			if err := p.SetOptimized(o); err != nil {
				t.Fatalf("%s: SetOptimized: %v", k.name, err)
			}
		}
		execs := []struct {
			name string
			run  func(*shader.Env) error
		}{
			{"interp", shader.Executor(p, &cost, false)},
			{"interp+passes", shader.Executor(p, &cost, true)},
		}
		for inv := 0; inv < invocations; inv++ {
			type result struct {
				outs       []shader.Vec4
				cycles     int64
				texFetches int64
				discarded  bool
			}
			var ref result
			for ei, ex := range execs {
				rng := rand.New(rand.NewSource(int64(inv)*7919 + 1))
				env := shader.NewEnv(p)
				fillEnv(env, rng)
				env.Reset()
				if err := ex.run(env); err != nil {
					t.Fatalf("%s/%s inv %d: %v", k.name, ex.name, inv, err)
				}
				got := result{
					outs:       append([]shader.Vec4(nil), env.Outputs...),
					cycles:     env.Cycles,
					texFetches: env.TexFetches,
					discarded:  env.Discarded,
				}
				if ei == 0 {
					ref = got
					continue
				}
				if got.cycles != ref.cycles {
					t.Fatalf("%s/%s inv %d: cycles %d != interp %d",
						k.name, ex.name, inv, got.cycles, ref.cycles)
				}
				if got.texFetches != ref.texFetches {
					t.Fatalf("%s/%s inv %d: texFetches %d != interp %d",
						k.name, ex.name, inv, got.texFetches, ref.texFetches)
				}
				if got.discarded != ref.discarded {
					t.Fatalf("%s/%s inv %d: discarded %v != interp %v",
						k.name, ex.name, inv, got.discarded, ref.discarded)
				}
				if got.discarded {
					continue // outputs of discarded fragments are never read
				}
				for r := range ref.outs {
					for c := 0; c < 4; c++ {
						gb := math.Float32bits(got.outs[r][c])
						rb := math.Float32bits(ref.outs[r][c])
						if gb != rb {
							t.Fatalf("%s/%s inv %d: output o%d.%d = %v (%08x) != interp %v (%08x)",
								k.name, ex.name, inv, r, c,
								got.outs[r][c], gb, ref.outs[r][c], rb)
						}
					}
				}
			}
		}
	}
}

// TestPassesDoWork guards against the pipeline silently becoming a no-op:
// across the kernel suite the passes must find something to improve.
func TestPassesDoWork(t *testing.T) {
	total := 0
	for _, k := range kernelSuite(t) {
		if o := Optimize(k.prog); o != nil {
			total += o.DeadInsts + o.FoldedConsts + o.PropagatedSrcs
		}
	}
	if total == 0 {
		t.Fatalf("pass pipeline found nothing across the whole kernel suite")
	}
}
