package shader

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDifferentialExecutorKernelSuite runs every generated kernel through
// Executor the way the vertex stage and the per-fragment sink drive it:
// one Env reused across invocations with Reset between them, so the
// zeroing the liveness proofs let Reset skip is exercised, and counters
// accumulating across invocations. Every invocation must match a run on a
// fresh Env bitwise, and the accumulated Cycles/TexFetches must equal the
// sums of the fresh runs. No OptProgram is attached in this package, so
// Executor resolves to Run here; the passes form is diffed against Run in
// analysis TestPassParity.
func TestDifferentialExecutorKernelSuite(t *testing.T) {
	cost := DefaultCostModel()
	rng := rand.New(rand.NewSource(20170327))
	for name, p := range kernelSuite(t) {
		t.Run(name, func(t *testing.T) {
			exec := Executor(p, &cost, true)
			reused := NewEnv(p)
			reused.Sample = diffSampler
			var wantCycles, wantTex int64
			for probe := 0; probe < 4; probe++ {
				fresh := NewEnv(p)
				fresh.Sample = diffSampler
				for i := range fresh.Uniforms {
					fresh.Uniforms[i] = Vec4{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
				}
				for i := range fresh.Inputs {
					fresh.Inputs[i] = Vec4{rng.Float32() * 16, rng.Float32() * 16, 0.5, 1}
				}
				copy(reused.Uniforms, fresh.Uniforms)
				copy(reused.Inputs, fresh.Inputs)
				reused.Reset()
				if err := Run(p, fresh, &cost); err != nil {
					t.Fatalf("probe %d: fresh Run: %v", probe, err)
				}
				if err := exec(reused); err != nil {
					t.Fatalf("probe %d: Executor on reused Env: %v", probe, err)
				}
				wantCycles += fresh.Cycles
				wantTex += fresh.TexFetches
				if reused.Discarded != fresh.Discarded {
					t.Fatalf("probe %d: Discarded divergence: fresh %v, reused %v\n%s",
						probe, fresh.Discarded, reused.Discarded, p.Disassemble())
				}
				if reused.Cycles != wantCycles {
					t.Fatalf("probe %d: accumulated Cycles %d, want %d\n%s",
						probe, reused.Cycles, wantCycles, p.Disassemble())
				}
				if reused.TexFetches != wantTex {
					t.Fatalf("probe %d: accumulated TexFetches %d, want %d\n%s",
						probe, reused.TexFetches, wantTex, p.Disassemble())
				}
				if !fresh.Discarded { // outputs of discarded invocations are never read
					diffBank(t, p, fmt.Sprintf("probe %d output", probe), fresh.Outputs, reused.Outputs)
				}
			}
		})
	}
}
