package analysis

import (
	"math"
	"math/rand"
	"testing"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/shader"
)

// FuzzPassPipeline drives the whole static-analysis stack — CFG, def-use,
// SCCP, resource counting, lint, the optimisation passes — with arbitrary
// GLSL, then differentially executes any program that survives the front
// end: the optimised form must match the reference interpreter bit-for-bit
// on outputs and exactly on Cycles/TexFetches/Discarded. Panics and parity
// breaks are both fuzz failures; rejected sources are simply uninteresting.
func FuzzPassPipeline(f *testing.F) {
	f.Add("precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }\n")
	f.Add("precision mediump float;\nuniform float u;\nvoid main() {\n" +
		"\tfloat dead = u * 3.0;\n\tfloat x = u;\n\tif (x > 0.5) { discard; }\n" +
		"\tgl_FragColor = vec4(x + (0.25 + 0.25));\n}\n")
	f.Add("precision mediump float;\nuniform sampler2D t;\nvarying vec2 v;\n" +
		"void main() {\n\tvec2 c = texture2D(t, v).xy;\n\tgl_FragColor = texture2D(t, c);\n}\n")
	f.Add("precision mediump float;\nuniform vec2 a;\nuniform vec2 b;\n" +
		"void main() {\n\tfloat r = a.x * b.x + a.y * b.y;\n" +
		"\tfor (int i = 0; i < 3; i++) { r = r * 0.5 + 0.1; }\n\tgl_FragColor = vec4(r);\n}\n")
	f.Add("precision mediump float;\nvoid main() { float x; gl_FragColor = vec4(x); }\n")
	f.Fuzz(func(t *testing.T, src string) {
		cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
		if err != nil {
			return
		}
		p, err := shader.Compile(cs)
		if err != nil || len(p.Insts) == 0 {
			return
		}
		cfg := BuildCFG(p)
		_ = CountResources(cfg)
		_ = Lint(p, LimitProfiles())
		// The CFG-derived mask-safety proof and the executor's own
		// eligibility probe must agree on every program.
		_, execReason := shader.LaneFallbackAt(p)
		_, cfgReason := MaskSafety(cfg)
		if (execReason == "") != (cfgReason == "") {
			t.Fatalf("MaskSafety and LaneFallbackAt disagree: executor %q, analysis %q",
				execReason, cfgReason)
		}
		o := Optimize(p)
		if o == nil {
			return
		}
		if err := p.SetOptimized(o); err != nil {
			t.Fatalf("Optimize broke the OptProgram contract: %v", err)
		}
		cost := shader.DefaultCostModel()
		mkEnv := func() *shader.Env {
			env := shader.NewEnv(p)
			rng := rand.New(rand.NewSource(7))
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
				h := math.Float32bits(u)*2654435761 + math.Float32bits(v)*40503 + uint32(idx)*97
				f := func(s uint32) float32 { return float32((h>>s)&0xFF) / 255 }
				return shader.Vec4{f(0), f(8), f(16), f(24)}
			}
			env.Reset()
			return env
		}
		ref, opt := mkEnv(), mkEnv()
		errRef := shader.Run(p, ref, &cost)
		errOpt := shader.RunOptimized(p, opt, &cost)
		if (errRef == nil) != (errOpt == nil) {
			t.Fatalf("execution disagreement: interp err=%v, passes err=%v", errRef, errOpt)
		}
		if errRef != nil {
			return
		}
		if ref.Discarded != opt.Discarded || ref.Cycles != opt.Cycles || ref.TexFetches != opt.TexFetches {
			t.Fatalf("counter divergence: discarded %v/%v cycles %d/%d tex %d/%d",
				ref.Discarded, opt.Discarded, ref.Cycles, opt.Cycles, ref.TexFetches, opt.TexFetches)
		}
		if !ref.Discarded {
			for i := range ref.Outputs {
				for c := 0; c < 4; c++ {
					if math.Float32bits(ref.Outputs[i][c]) != math.Float32bits(opt.Outputs[i][c]) {
						t.Fatalf("output o%d.%d diverges: %v vs %v", i, c, ref.Outputs[i][c], opt.Outputs[i][c])
					}
				}
			}
		}
	})
}
