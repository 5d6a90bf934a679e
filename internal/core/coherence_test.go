package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/timing"
)

// Coherence parity matrix: every state-stepping workload must produce
// bit-identical final state, identical virtual time and identical step
// behaviour across {coherence on/off} × {workers 1/4}. Elision is a
// host-time optimisation only; these tests are the contract. The
// per-fragment sink's coherence hooks are covered in package gles, where
// lane width 1 selects per-fragment shading.

// cohTestPlate is the jacobi boundary condition: hot left edge.
func cohTestPlate(n int) *codec.Matrix {
	g := codec.NewMatrix(n, n)
	for y := 0; y < n; y++ {
		g.Set(y, 0, 0.9)
	}
	return g
}

// float64Bytes flattens a float64 slice for exact byte comparison.
func float64Bytes(data []float64) []byte {
	out := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// cohCell is one configuration of the parity matrix.
type cohCell struct {
	name      string
	coherence bool
	workers   int
}

var cohCells = []cohCell{
	{"off-w1", false, 1}, // the reference cell
	{"on-w1", true, 1},
	{"on-w4", true, 4},
	{"off-w4", false, 4},
}

// cohRunWorkload builds an engine for the cell, steps the workload and
// returns the final state bytes plus the engine's counters.
type cohOutcome struct {
	state          []byte
	now            timing.Time
	elided, shaded int64
}

func cohRunCell(t *testing.T, c cohCell, n, iters int,
	run func(e *Engine, iters int) ([]byte, error)) cohOutcome {
	t.Helper()
	cfg := baseConfig(n)
	cfg.Workers = c.workers
	cfg.NoCoherence = !c.coherence
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if c.coherence {
		// Select the cache explicitly: the default may come from
		// GLES2GPGPU_NO_COHERENCE, and the "on" cells assert elision.
		e.GL().SetCoherence(true)
	}
	state, err := run(e, iters)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	e.Finish()
	elided, shaded := e.CoherenceStats()
	return cohOutcome{state: state, now: e.Now(), elided: elided, shaded: shaded}
}

func TestCoherenceParityMatrix(t *testing.T) {
	const n, iters = 64, 60
	workloads := []struct {
		name string
		run  func(e *Engine, iters int) ([]byte, error)
		// wantElision: the workload has byte-static regions at this size, so
		// the coherent cells must actually elide (not just agree).
		wantElision bool
	}{
		{"jacobi8", func(e *Engine, iters int) ([]byte, error) {
			r, err := NewJacobi8(e, cohTestPlate(n))
			if err != nil {
				return nil, err
			}
			defer r.Release()
			for i := 0; i < iters; i++ {
				if err := r.RunOnce(context.Background()); err != nil {
					return nil, err
				}
			}
			return r.State()
		}, true},
		{"particles", func(e *Engine, iters int) ([]byte, error) {
			r, err := NewParticles(e, 42)
			if err != nil {
				return nil, err
			}
			defer r.Release()
			for i := 0; i < iters; i++ {
				if err := r.RunOnce(context.Background()); err != nil {
					return nil, err
				}
			}
			return r.State()
		}, false},
		{"reaction-diffusion", func(e *Engine, iters int) ([]byte, error) {
			r, err := NewReactionDiffusion(e)
			if err != nil {
				return nil, err
			}
			defer r.Release()
			for i := 0; i < iters; i++ {
				if err := r.RunOnce(context.Background()); err != nil {
					return nil, err
				}
			}
			return r.State()
		}, false},
		// Codec-precision jacobi: the [13]-encoded path, compared through
		// its decoded float64 result (a pure function of the result bytes).
		{"jacobi-codec", func(e *Engine, iters int) ([]byte, error) {
			r, err := NewJacobi(e, cohTestPlate(n))
			if err != nil {
				return nil, err
			}
			defer r.Release()
			for i := 0; i < iters; i++ {
				if err := r.RunOnce(context.Background()); err != nil {
					return nil, err
				}
			}
			m, err := r.Result()
			if err != nil {
				return nil, err
			}
			return float64Bytes(m.Data), nil
		}, true},
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ref := cohRunCell(t, cohCells[0], n, iters, w.run)
			if ref.elided != 0 {
				t.Fatalf("reference cell elided %d tiles with coherence off", ref.elided)
			}
			for _, c := range cohCells[1:] {
				got := cohRunCell(t, c, n, iters, w.run)
				if !bytes.Equal(ref.state, got.state) {
					for i := range ref.state {
						if ref.state[i] != got.state[i] {
							t.Fatalf("%s: state diverges at byte %d: reference %d, got %d",
								c.name, i, ref.state[i], got.state[i])
						}
					}
				}
				if got.now != ref.now {
					t.Errorf("%s: virtual time %v, reference %v (elision must not touch the modelled device)",
						c.name, got.now, ref.now)
				}
				if !c.coherence && got.elided != 0 {
					t.Errorf("%s: elided %d tiles with coherence off", c.name, got.elided)
				}
				if c.coherence && w.wantElision && got.elided == 0 {
					t.Errorf("%s: no tiles elided; expected byte-static regions to replay", c.name)
				}
			}
		})
	}
}

// TestCoherenceConvergenceParity runs jacobi8 to byte convergence with the
// cache on and off: identical step counts, residuals and final bytes.
func TestCoherenceConvergenceParity(t *testing.T) {
	const n = 64
	run := func(coherence bool) (StepResult, []byte) {
		cfg := baseConfig(n)
		cfg.NoCoherence = !coherence
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewJacobi8(e, cohTestPlate(n))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Release()
		res, err := r.RunToConvergence(context.Background(), StepOpts{
			MaxIters: 2000, CheckEvery: 50, Tol: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		state, err := r.State()
		if err != nil {
			t.Fatal(err)
		}
		return res, state
	}
	onRes, onState := run(true)
	offRes, offState := run(false)
	if onRes != offRes {
		t.Errorf("convergence diverges: %+v with coherence on, %+v off", onRes, offRes)
	}
	if !bytes.Equal(onState, offState) {
		t.Error("converged state bytes differ with coherence on vs off")
	}
	if !onRes.Converged {
		t.Errorf("jacobi8 did not reach a byte fixed point in %d iters", onRes.Iters)
	}
}
