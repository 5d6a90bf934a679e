package gles

import (
	"fmt"
	"testing"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/shader"
)

// Lane-batched execution parity: the execution-strategy matrix
// {per-fragment, lanes} × {serial, 4 workers} must produce byte-identical
// framebuffers and bit-identical fragment/cycle/TexFetch counters. The
// per-fragment cells run at lane width 1, which shades every fragment on
// the reference interpreter; serial width 1 is the reference. The lanes
// cells run the one lane compiler (line form for straight-line programs,
// masked form for branchy or discarding ones) at the default width and at
// non-default widths, including ones that do not divide the fragment count
// (the partial-final-batch path).

// expectLaneParity runs the scenario through every cell of the matrix and
// demands bit-identity with the serial per-fragment reference.
func expectLaneParity(t *testing.T, w, h int, scenario func(gl *Context) uint32) {
	t.Helper()
	ref := runScenario(t, reference, w, h, scenario)
	cfgs := []engineCfg{{workers: 4, laneWidth: 1}}
	// The default width, then non-default widths, including ones that do
	// not divide typical coverage counts so the final batch is partial.
	for _, width := range []int{shader.DefaultLaneWidth, 2, 5, 16} {
		cfgs = append(cfgs,
			engineCfg{workers: 1, laneWidth: width},
			engineCfg{workers: 4, laneWidth: width})
	}
	for _, c := range cfgs {
		c.name = fmt.Sprintf("lw%d-w%d", c.laneWidth, c.workers)
		expectSame(t, c.name, ref, runScenario(t, c, w, h, scenario))
	}
}

// TestLaneParityTexturedQuad: a texturing straight-line kernel — the shape
// of every lane-eligible GPGPU kernel — across the whole matrix. 64×64
// coverage reaches the parallel gate, so 4-worker cells genuinely shade
// on workers.
func TestLaneParityTexturedQuad(t *testing.T) {
	const n = 64
	expectLaneParity(t, n, n, func(gl *Context) uint32 {
		checkerTexture(gl, n, n)
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
void main() {
	vec4 s = texture2D(u_tex, v_tex);
	float acc = 0.0;
	for (int i = 0; i < 4; i++) {
		acc += s.x * 0.3 + v_tex.y * 0.1;
	}
	gl_FragColor = vec4(fract(acc), s.yz, 1.0);
}`)
		gl.UseProgram(p)
		gl.Uniform1i(gl.GetUniformLocation(p, "u_tex"), 0)
		drawQuad(t, gl, p)
		return p
	})
}

// TestLaneParityTranscendental: float64-path ops (sin, pow, inversesqrt)
// must round identically on lanes and on the interpreter.
func TestLaneParityTranscendental(t *testing.T) {
	const n = 64
	expectLaneParity(t, n, n, func(gl *Context) uint32 {
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main() {
	float a = sin(v_tex.x * 6.28) * 0.5 + 0.5;
	float b = pow(v_tex.y + 0.1, 2.2);
	float c = inversesqrt(v_tex.x + 1.0);
	gl_FragColor = vec4(a, fract(b), fract(c), 1.0);
}`)
		gl.UseProgram(p)
		drawQuad(t, gl, p)
		return p
	})
}

// TestLaneParityPartialBatch: a 13×7 grid (91 fragments) is not a multiple
// of any lane width in the sweep, so every lane cell ends the draw with a
// partial final batch.
func TestLaneParityPartialBatch(t *testing.T) {
	expectLaneParity(t, 13, 7, func(gl *Context) uint32 {
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main() {
	float a = v_tex.x * 3.0 + v_tex.y;
	gl_FragColor = vec4(fract(a), v_tex, 1.0);
}`)
		gl.UseProgram(p)
		drawQuad(t, gl, p)
		return p
	})
}

// TestLaneParityDiscard: discard makes lanes within a batch diverge, so
// the lanes cells shade it in the masked form with per-lane death; it
// must match the per-fragment cells everywhere.
func TestLaneParityDiscard(t *testing.T) {
	const n = 64
	expectLaneParity(t, n, n, func(gl *Context) uint32 {
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main() {
	if (v_tex.x > 0.5) discard;
	gl_FragColor = vec4(v_tex, 0.5, 1.0);
}`)
		gl.UseProgram(p)
		drawQuad(t, gl, p)
		return p
	})
}

// TestLaneParityBranchyFallback: a data-dependent if/else (the jacobi
// shape) compiles to real control flow, so the lanes cells run it in the
// masked form where the width-1 cells shade it per-fragment; pixels and
// counters still match the interpreter bit-for-bit.
func TestLaneParityBranchyFallback(t *testing.T) {
	const n = 32
	expectLaneParity(t, n, n, func(gl *Context) uint32 {
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main() {
	float v;
	if (v_tex.x + v_tex.y > 0.9) {
		v = v_tex.x * 0.25;
	} else {
		v = v_tex.y * 4.0;
	}
	gl_FragColor = vec4(fract(v), v_tex, 1.0);
}`)
		gl.UseProgram(p)
		drawQuad(t, gl, p)
		return p
	})
}

// TestLaneParityPoints: GL_POINTS shade through the same sink as
// triangles, so with lanes on, point fragments run lane-batched. Disjoint
// points split across workers; overlapping points with additive blending
// (the histogram scatter idiom) stay on one worker, where gather-order
// scatter must reproduce the serial blend sequence of every pixel.
func TestLaneParityPoints(t *testing.T) {
	const n = 128
	pointsVS := `
attribute vec2 a_pos;
uniform float u_size;
varying vec2 v_val;
void main() {
	gl_Position = vec4(a_pos, 0.0, 1.0);
	gl_PointSize = u_size;
	v_val = a_pos * 0.5 + 0.5;
}`
	pointsFS := `
precision mediump float;
varying vec2 v_val;
void main() { gl_FragColor = vec4(v_val * 0.02, fract(v_val.x * 13.0) * 0.02, gl_PointCoord.y * 0.03); }`
	draw := func(gl *Context, size float32, verts []float32, blend bool) uint32 {
		p := buildProgram(t, gl, pointsVS, pointsFS)
		if gl.laneWidth > 1 && gl.laneCompiledFor(gl.programs[p].fsProg) == nil {
			t.Fatal("points program is not lane-eligible: the lane cells would not run lanes")
		}
		if blend {
			gl.Enable(BLEND)
			gl.BlendFunc(ONE, ONE)
		}
		gl.UseProgram(p)
		gl.Uniform1f(gl.GetUniformLocation(p, "u_size"), size)
		loc := gl.GetAttribLocation(p, "a_pos")
		gl.EnableVertexAttribArray(loc)
		gl.VertexAttribPointerClient(loc, 2, verts, 0, 0)
		gl.DrawArrays(POINTS, 0, len(verts)/2)
		return p
	}
	t.Run("disjoint", func(t *testing.T) {
		// A 64×64 grid of size-1 points at every other pixel: pairwise
		// disjoint, 4096 fragments, so the 4-worker cells split the points.
		var verts []float32
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				verts = append(verts,
					(2*float32(x)+0.5)/n*2-1,
					(2*float32(y)+0.5)/n*2-1)
			}
		}
		expectLaneParity(t, n, n, func(gl *Context) uint32 { return draw(gl, 1, verts, false) })
	})
	t.Run("overlapping-blend-one-one", func(t *testing.T) {
		// 2048 size-3 points over 37 columns of one row band: many hits per
		// pixel, several within one lane batch.
		var verts []float32
		for i := 0; i < 2048; i++ {
			x := float32(i%37)*2 + 20
			y := float32(i%5) + 60
			verts = append(verts, (x+0.5)/n*2-1, (y+0.5)/n*2-1)
		}
		expectLaneParity(t, n, n, func(gl *Context) uint32 { return draw(gl, 3, verts, true) })
	})
}

// TestLaneFallbackCounter pins the fallback accounting at the default lane
// width: an unproven program — it writes gl_FragColor on one branch only,
// so OutputsAlwaysWritten fails — must shade per-fragment and increments
// LaneFallbackDraws; a branchy proven program runs masked lanes and a
// straight-line one the line form, and neither counts a fallback.
func TestLaneFallbackCounter(t *testing.T) {
	const n = 32
	unprovenFS := `
precision mediump float;
varying vec2 v_tex;
void main() {
	if (v_tex.x > 0.5) {
		gl_FragColor = vec4(v_tex, 0.0, 1.0);
	}
}`
	branchyFS := `
precision mediump float;
varying vec2 v_tex;
void main() {
	float v = 0.0;
	if (v_tex.x > 0.5) {
		v = v_tex.y;
	}
	gl_FragColor = vec4(v, v_tex, 1.0);
}`
	straightFS := `
precision mediump float;
varying vec2 v_tex;
void main() {
	gl_FragColor = vec4(v_tex, 0.0, 1.0);
}`
	run := func(fs string) int64 {
		env := newEnv(t, device.Generic(), n, n, false)
		defer env.gl.Destroy()
		gl := env.gl
		p := buildProgram(t, gl, quadVS, fs)
		gl.UseProgram(p)
		drawQuad(t, gl, p)
		if e := gl.GetError(); e != NO_ERROR {
			t.Fatalf("draw error: %s", ErrName(e))
		}
		return gl.LaneFallbackDraws()
	}
	if got := run(unprovenFS); got == 0 {
		t.Errorf("unproven draw should count a fallback")
	}
	if got := run(branchyFS); got != 0 {
		t.Errorf("masked lanes should absorb the branchy draw, got %d fallbacks", got)
	}
	if got := run(straightFS); got != 0 {
		t.Errorf("straight-line draw should never count a fallback, got %d", got)
	}
}
