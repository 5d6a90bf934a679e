package shader

import (
	"fmt"
	"testing"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
)

// BenchmarkShaderExec measures one fragment-shader invocation of the
// paper's kernels on the reference interpreter: the per-fragment baseline
// that BenchmarkShaderExecLanes amortises.
func BenchmarkShaderExec(b *testing.B) {
	cost := DefaultCostModel()
	benchKernel := func(name, src string) {
		cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
		if err != nil {
			b.Fatalf("%s: frontend: %v", name, err)
		}
		p, err := Compile(cs)
		if err != nil {
			b.Fatalf("%s: compile: %v", name, err)
		}
		run := func(b *testing.B, exec func(*Env) error) {
			env := NewEnv(p)
			env.Sample = func(idx int, u, v float32) Vec4 {
				return Vec4{u, v, u * v, 1}
			}
			for i := range env.Inputs {
				env.Inputs[i] = Vec4{0.421875, 0.734375, 0, 1}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Reset()
				if err := exec(env); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(name+"/interp", func(b *testing.B) {
			run(b, Executor(p, &cost, false))
		})
	}

	benchKernel("sum", kernels.Sum(kernels.DefaultOptions))
	sgemm, err := kernels.SgemmPass(1024, 16, kernels.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	benchKernel("sgemm16", sgemm)
	benchKernel("conv3x3", kernels.Conv3x3(1024, 1024, kernels.DefaultOptions))
}

// BenchmarkShaderExecLanes measures per-invocation time of the lane-batched
// engine on the straight-line kernels. ns/op is per invocation (the runs
// divide by the batch width), so BenchmarkShaderExec's interp rows over
// these are the dispatch-amortisation speedup.
func BenchmarkShaderExecLanes(b *testing.B) {
	cost := DefaultCostModel()
	sampler := func(u, v float32) Vec4 { return Vec4{u, v, u * v, 1} }
	benchKernel := func(name, src string) {
		cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: glsl.StageFragment})
		if err != nil {
			b.Fatalf("%s: frontend: %v", name, err)
		}
		p, err := Compile(cs)
		if err != nil {
			b.Fatalf("%s: compile: %v", name, err)
		}
		in := Vec4{0.421875, 0.734375, 0, 1}
		for _, w := range []int{4, 8, 16} {
			w := w
			b.Run(fmt.Sprintf("%s/w%d", name, w), func(b *testing.B) {
				lc := p.LaneCompiled(&cost, w)
				if lc == nil {
					b.Fatal("kernel must lane-compile")
				}
				env := NewLaneEnv(p, w)
				env.Samplers = []TexFunc{sampler, sampler}
				for l := 0; l < w; l++ {
					for reg := 0; reg < p.NumInputs; reg++ {
						env.SetInput(l, reg, in)
					}
				}
				env.N = w
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += w {
					lc.Run(env)
				}
			})
		}
	}
	benchKernel("sum", kernels.Sum(kernels.DefaultOptions))
	sgemm, err := kernels.SgemmPass(1024, 16, kernels.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	benchKernel("sgemm16", sgemm)
	benchKernel("conv3x3", kernels.Conv3x3(1024, 1024, kernels.DefaultOptions))
}
