package gles

import (
	"bytes"
	"fmt"
	"testing"

	"gles2gpgpu/internal/device"
)

// Lane-batched execution parity: the full execution-strategy matrix
// {interpreter, per-fragment JIT, lanes} × {serial, 4 workers} must
// produce byte-identical framebuffers and bit-identical
// fragment/cycle/TexFetch counters. The "jit" rows run the lane engine at
// width 1, which shades every fragment through the per-fragment JIT; the
// "lanes" rows run the one lane compiler (line form for straight-line
// programs, masked form for branchy or discarding ones) at the default
// width and at non-default widths, including ones that do not divide the
// fragment count (the partial-final-batch path).

// laneCfg is one cell of the execution-strategy matrix.
type laneCfg struct {
	engine  string // "interp", "jit" or "lanes"
	workers int
	width   int // lane width; 0 means the default (lanes only)
}

func (c laneCfg) name() string {
	n := fmt.Sprintf("%s-w%d", c.engine, c.workers)
	if c.width != 0 {
		n += fmt.Sprintf("-lw%d", c.width)
	}
	return n
}

// runScenarioLanes is runScenario with the full engine choice: reference
// interpreter, per-fragment closure JIT, or lane-batched SoA execution.
func runScenarioLanes(t *testing.T, c laneCfg, w, h int, scenario func(gl *Context) uint32) drawOutcome {
	t.Helper()
	env := newEnv(t, device.Generic(), w, h, false)
	gl := env.gl
	gl.SetWorkers(c.workers)
	gl.SetJIT(c.engine != "interp")
	switch c.engine {
	case "interp":
	case "jit":
		gl.laneWidth = 1
	case "lanes":
		if c.width != 0 {
			gl.laneWidth = c.width
		}
	default:
		t.Fatalf("unknown engine %q", c.engine)
	}
	defer gl.Destroy()
	prog := scenario(gl)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("%s: scenario error: %s", c.name(), ErrName(e))
	}
	out := drawOutcome{pixels: make([]byte, w*h*4)}
	gl.ReadPixels(0, 0, w, h, RGBA, UNSIGNED_BYTE, out.pixels)
	var ok bool
	out.fragments, out.cycles, out.texFetches, ok = gl.DrawStatsFor(prog, w, h)
	if !ok {
		t.Fatal("no draw stats recorded")
	}
	return out
}

// expectLaneParity runs the scenario through every cell of the matrix and
// demands bit-identity with the serial interpreter.
func expectLaneParity(t *testing.T, w, h int, scenario func(gl *Context) uint32) {
	t.Helper()
	ref := runScenarioLanes(t, laneCfg{engine: "interp", workers: 1}, w, h, scenario)
	var cfgs []laneCfg
	for _, engine := range []string{"interp", "jit", "lanes"} {
		for _, workers := range []int{1, 4} {
			if engine == "interp" && workers == 1 {
				continue // the reference itself
			}
			cfgs = append(cfgs, laneCfg{engine: engine, workers: workers})
		}
	}
	// Non-default widths, including ones that do not divide typical
	// coverage counts so the final batch is partial.
	for _, width := range []int{2, 5, 16} {
		cfgs = append(cfgs,
			laneCfg{engine: "lanes", workers: 1, width: width},
			laneCfg{engine: "lanes", workers: 4, width: width})
	}
	for _, c := range cfgs {
		got := runScenarioLanes(t, c, w, h, scenario)
		if !bytes.Equal(ref.pixels, got.pixels) {
			for i := range ref.pixels {
				if ref.pixels[i] != got.pixels[i] {
					t.Fatalf("%s: framebuffers diverge at byte %d (pixel %d): interp-serial %d, %s %d",
						c.name(), i, i/4, ref.pixels[i], c.name(), got.pixels[i])
				}
			}
		}
		if ref.fragments != got.fragments {
			t.Errorf("%s: fragments: %d vs %d", c.name(), ref.fragments, got.fragments)
		}
		if ref.cycles != got.cycles {
			t.Errorf("%s: cycles: %d vs %d", c.name(), ref.cycles, got.cycles)
		}
		if ref.texFetches != got.texFetches {
			t.Errorf("%s: tex fetches: %d vs %d", c.name(), ref.texFetches, got.texFetches)
		}
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
// masked form where the jit cells shade it per-fragment; pixels and
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
		if gl.laneWidth > 1 && gl.JIT() && gl.laneCompiledFor(gl.programs[p].fsProg) == nil {
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

// TestLaneFallbackCounter pins the fallback accounting with the JIT on
// (the only mode where draws want lanes): an unproven program — it writes
// gl_FragColor on one branch only, so OutputsAlwaysWritten fails — must
// shade per-fragment and increments LaneFallbackDraws; a branchy proven
// program runs masked lanes and a straight-line one the line form, and
// neither counts a fallback.
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
		gl.SetJIT(true)
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
