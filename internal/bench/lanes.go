package bench

// Lane-batched shader-execution microbenchmarks: how fast the host
// simulates one shader invocation when batches of W fragments run through
// each instruction at once (internal/shader/lanes.go), across
// W ∈ {1, 4, 8, 16}. W=1 is the per-fragment baseline, the reference
// interpreter with the optimisation passes on (what the engine runs for
// fragments it does not lane-batch), so lanes-vs-w1 is the
// dispatch-amortisation speedup in isolation, and the sweep is what picks
// shader.DefaultLaneWidth.
//
// Every width replays exactly the same invocation stream and must produce
// a bit-identical output checksum and virtual-cycle/TexFetch totals — the
// lane engine's correctness contract, enforced here on every run, not just
// under -race in tests.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/shader/analysis"
)

// LaneMicroResult is one lane-width microbenchmark measurement.
type LaneMicroResult struct {
	Kernel string
	// Width is the SoA batch width; 1 is the per-fragment interpreter
	// baseline.
	Width       int
	Invocations int
	HostMS      float64
	// Cycles and Checksum are bit-identical across every width of the same
	// kernel (enforced): virtual time and results do not depend on W.
	Cycles   int64
	Checksum uint64
}

// Name is the stable figure label, e.g. "micro/lanes/sum/w8".
func (r LaneMicroResult) Name() string {
	return fmt.Sprintf("micro/lanes/%s/w%d", r.Kernel, r.Width)
}

// laneMicroWidths is the measured sweep; 1 is the scalar baseline.
var laneMicroWidths = []int{1, 4, 8, 16}

// laneHashSampler is the deterministic texture fetch used by every width,
// the same hash as the micro.go sampler.
func laneHashSampler(idx int, u, v float32) shader.Vec4 {
	h := math.Float32bits(u)*2654435761 + math.Float32bits(v)*40503 + uint32(idx)*97
	return shader.Vec4{
		float32(h&0xff) / 255,
		float32((h>>8)&0xff) / 255,
		float32((h>>16)&0xff) / 255,
		float32((h>>24)&0xff) / 255,
	}
}

// checksumFold folds one output vector into an FNV-1a running hash, over
// the raw float32 bit patterns so ±0 and NaN payloads count.
func checksumFold(sum uint64, v shader.Vec4) uint64 {
	const prime = 1099511628211
	for c := 0; c < 4; c++ {
		bits := math.Float32bits(v[c])
		for s := 0; s < 32; s += 8 {
			sum = (sum ^ uint64(bits>>s&0xff)) * prime
		}
	}
	return sum
}

// LaneMicro measures the straight-line kernels at every lane width,
// running invocations invocations per configuration (0 means 8192; any
// remainder modulo a width exercises the partial-batch path). ctx cancels
// between kernels.
func LaneMicro(ctx context.Context, invocations int) ([]LaneMicroResult, error) {
	if invocations <= 0 {
		invocations = 8192
	}
	o := kernels.DefaultOptions
	sgemm, err := kernels.SgemmPass(1024, 16, o)
	if err != nil {
		return nil, err
	}
	kset := []struct {
		name string
		src  string
	}{
		{"sum", kernels.Sum(o)},
		{"sgemm16", sgemm},
		{"conv3x3", kernels.Conv3x3(1024, 1024, o)},
	}
	cost := device.Generic().CostModel
	var out []LaneMicroResult
	for _, k := range kset {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cs, err := glsl.Frontend(k.src, glsl.CompileOptions{Stage: glsl.StageFragment})
		if err != nil {
			return nil, fmt.Errorf("lane micro %s: %w", k.name, err)
		}
		p, err := shader.Compile(cs)
		if err != nil {
			return nil, fmt.Errorf("lane micro %s: %w", k.name, err)
		}
		if op := analysis.Optimize(p); op != nil {
			if err := p.SetOptimized(op); err != nil {
				return nil, fmt.Errorf("lane micro %s: %w", k.name, err)
			}
		}
		outVar, hasOut := p.LookupOutput("gl_FragColor")
		if !hasOut {
			return nil, fmt.Errorf("lane micro %s: no gl_FragColor", k.name)
		}

		// One fixed invocation stream shared by every width: per-invocation
		// inputs and one uniform set, both from a seeded generator.
		rng := rand.New(rand.NewSource(42))
		nuni := p.NumUniform
		if nuni < 1 {
			nuni = 1
		}
		uniforms := make([]shader.Vec4, nuni)
		for i := range uniforms {
			for c := 0; c < 4; c++ {
				uniforms[i][c] = rng.Float32()
			}
		}
		nin := p.NumInputs
		inputs := make([]shader.Vec4, invocations*nin)
		for i := range inputs {
			for c := 0; c < 4; c++ {
				inputs[i][c] = rng.Float32()
			}
		}

		var wantCycles, wantTex int64
		var wantSum uint64
		first := true
		for _, w := range laneMicroWidths {
			var host time.Duration
			var cycles, tex int64
			sum := uint64(14695981039346656037)
			if w == 1 {
				exec := shader.Executor(p, &cost, true)
				env := shader.NewEnv(p)
				env.Uniforms = uniforms
				env.Sample = laneHashSampler
				start := time.Now()
				for i := 0; i < invocations; i++ {
					copy(env.Inputs, inputs[i*nin:(i+1)*nin])
					if err := exec(env); err != nil {
						return nil, fmt.Errorf("lane micro %s: %w", k.name, err)
					}
					sum = checksumFold(sum, env.Outputs[outVar.Reg])
				}
				host = time.Since(start)
				cycles, tex = env.Cycles, env.TexFetches
			} else {
				lc := p.LaneCompiledOpt(&cost, w)
				if lc == nil {
					_, reason := shader.LaneFallbackAt(p)
					return nil, fmt.Errorf("lane micro %s: width %d did not lane-compile: %s",
						k.name, w, reason)
				}
				env := shader.NewLaneEnv(p, w)
				env.SetUniforms(uniforms)
				env.Sample = laneHashSampler
				start := time.Now()
				for i := 0; i < invocations; i += w {
					n := invocations - i
					if n > w {
						n = w
					}
					for l := 0; l < n; l++ {
						for reg := 0; reg < nin; reg++ {
							env.SetInput(l, reg, inputs[(i+l)*nin+reg])
						}
					}
					env.N = n
					lc.Run(env)
					for l := 0; l < n; l++ {
						sum = checksumFold(sum, env.Output(l, outVar.Reg))
					}
				}
				host = time.Since(start)
				cycles, tex = env.Cycles, env.TexFetches
			}
			if first {
				wantCycles, wantTex, wantSum, first = cycles, tex, sum, false
			} else {
				if cycles != wantCycles || tex != wantTex {
					return nil, fmt.Errorf("lane micro %s: w%d: %d cycles/%d fetches, want %d/%d (lane contract broken)",
						k.name, w, cycles, tex, wantCycles, wantTex)
				}
				if sum != wantSum {
					return nil, fmt.Errorf("lane micro %s: w%d: checksum %#x, want %#x (lane contract broken)",
						k.name, w, sum, wantSum)
				}
			}
			out = append(out, LaneMicroResult{
				Kernel: k.name, Width: w,
				Invocations: invocations,
				HostMS:      float64(host.Microseconds()) / 1000,
				Cycles:      cycles,
				Checksum:    sum,
			})
		}
	}
	return out, nil
}
