package gles

import (
	"bytes"
	"testing"

	"gles2gpgpu/internal/device"
)

// drawOutcome captures everything a draw scenario produces that parallel
// shading must reproduce bit-for-bit.
type drawOutcome struct {
	pixels     []byte
	fragments  int64
	cycles     int64
	texFetches int64
}

// engineCfg is one cell of an execution-strategy matrix. Zero fields keep
// the context's defaults.
type engineCfg struct {
	name    string
	workers int
	// laneWidth 1 shades every fragment per-fragment on the reference
	// interpreter; serial width 1 is the reference of every matrix.
	laneWidth int
	tileSize  int
	// passes, when set, selects the optimisation passes explicitly; nil
	// keeps the default (GLES2GPGPU_NO_PASSES may turn them off).
	passes *bool
}

// reference is the cell every parity matrix compares against: one worker
// shading per-fragment on the interpreter.
var reference = engineCfg{name: "reference", workers: 1, laneWidth: 1}

// runScenario executes scenario on a fresh w×h context configured by cfg
// and returns the framebuffer plus the measured stats of the scenario's
// returned program.
func runScenario(t *testing.T, cfg engineCfg, w, h int, scenario func(gl *Context) uint32) drawOutcome {
	t.Helper()
	env := newEnv(t, device.Generic(), w, h, false)
	gl := env.gl
	if cfg.workers != 0 {
		gl.SetWorkers(cfg.workers)
	}
	if cfg.laneWidth != 0 {
		gl.laneWidth = cfg.laneWidth
	}
	if cfg.tileSize != 0 {
		gl.tileSize = cfg.tileSize
	}
	if cfg.passes != nil {
		gl.SetPasses(*cfg.passes)
	}
	defer gl.Destroy()
	prog := scenario(gl)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("%s: scenario error: %s", cfg.name, ErrName(e))
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

// expectSame demands that got, the outcome of cell name, reproduces ref:
// identical framebuffers and identical virtual-time counters.
func expectSame(t *testing.T, name string, ref, got drawOutcome) {
	t.Helper()
	if !bytes.Equal(ref.pixels, got.pixels) {
		for i := range ref.pixels {
			if ref.pixels[i] != got.pixels[i] {
				t.Fatalf("%s: framebuffers diverge at byte %d (pixel %d): reference %d, got %d",
					name, i, i/4, ref.pixels[i], got.pixels[i])
			}
		}
	}
	if ref.fragments != got.fragments {
		t.Errorf("%s: fragments: %d vs %d", name, ref.fragments, got.fragments)
	}
	if ref.cycles != got.cycles {
		t.Errorf("%s: cycles: %d vs %d", name, ref.cycles, got.cycles)
	}
	if ref.texFetches != got.texFetches {
		t.Errorf("%s: tex fetches: %d vs %d", name, ref.texFetches, got.texFetches)
	}
}

// expectParity runs the scenario serially and with four workers and demands
// identical framebuffers and identical virtual-time counters.
func expectParity(t *testing.T, w, h int, scenario func(gl *Context) uint32) {
	t.Helper()
	serial := runScenario(t, engineCfg{name: "serial", workers: 1}, w, h, scenario)
	parallel := runScenario(t, engineCfg{name: "parallel", workers: 4}, w, h, scenario)
	expectSame(t, "parallel", serial, parallel)
}

// checkerTexture builds a w×h RGBA texture with position-dependent bytes.
func checkerTexture(gl *Context, w, h int) uint32 {
	tex := gl.GenTexture()
	gl.BindTexture(TEXTURE_2D, tex)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, NEAREST)
	gl.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, NEAREST)
	data := make([]byte, w*h*4)
	for i := range data {
		data[i] = byte(i*7 + i/9)
	}
	gl.TexImage2D(TEXTURE_2D, 0, RGBA, w, h, RGBA, UNSIGNED_BYTE, data)
	return tex
}

func TestParallelTriangleParity(t *testing.T) {
	const n = 128 // 16384 fragments: well past the parallel gate
	expectParity(t, n, n, func(gl *Context) uint32 {
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

func TestParallelOverlappingBlendedTrianglesParity(t *testing.T) {
	// Two overlapping quads inside one draw with additive blending: tile
	// partitioning must preserve the per-pixel blend order exactly.
	const n = 128
	expectParity(t, n, n, func(gl *Context) uint32 {
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main() { gl_FragColor = vec4(v_tex * 0.3, 0.2, 0.25); }`)
		gl.Enable(BLEND)
		gl.BlendFunc(ONE, ONE)
		gl.UseProgram(p)
		loc := gl.GetAttribLocation(p, "a_pos")
		verts := []float32{
			// Full-screen quad.
			-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1,
			// Overlapping half-screen quad.
			-0.5, -0.5, 1, -0.5, 1, 1, -0.5, -0.5, 1, 1, -0.5, 1,
		}
		gl.EnableVertexAttribArray(loc)
		gl.VertexAttribPointerClient(loc, 2, verts, 0, 0)
		gl.DrawArrays(TRIANGLES, 0, 12)
		return p
	})
}

func TestParallelDisjointPointsParity(t *testing.T) {
	// A 64×64 grid of size-1 points on a 128×128 target: pairwise-disjoint
	// rects, so the parallel point path engages.
	const n = 128
	expectParity(t, n, n, func(gl *Context) uint32 {
		p := buildProgram(t, gl, `
attribute vec2 a_pos;
varying vec2 v_val;
void main() {
	gl_Position = vec4(a_pos, 0.0, 1.0);
	gl_PointSize = 1.0;
	v_val = a_pos * 0.5 + 0.5;
}`, `
precision mediump float;
varying vec2 v_val;
void main() { gl_FragColor = vec4(v_val, fract(v_val.x * 13.0), 1.0); }`)
		gl.UseProgram(p)
		loc := gl.GetAttribLocation(p, "a_pos")
		var verts []float32
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				// Pixel centres (2x+0.5, 2y+0.5) in a 128-wide viewport.
				verts = append(verts,
					(2*float32(x)+0.5)/float32(n)*2-1,
					(2*float32(y)+0.5)/float32(n)*2-1)
			}
		}
		gl.EnableVertexAttribArray(loc)
		gl.VertexAttribPointerClient(loc, 2, verts, 0, 0)
		gl.DrawArrays(POINTS, 0, len(verts)/2)
		return p
	})
}

func TestParallelOverlappingPointsFallBack(t *testing.T) {
	// The histogram idiom: thousands of points scattered onto the same few
	// pixels with additive blending. Overlapping rects must force the
	// serial path, keeping the accumulated counts exact.
	const n = 128
	scenario := func(gl *Context) uint32 {
		p := buildProgram(t, gl, `
attribute vec2 a_pos;
void main() {
	gl_Position = vec4(a_pos, 0.0, 1.0);
	gl_PointSize = 2.0;
}`, `
precision mediump float;
void main() { gl_FragColor = vec4(1.0/255.0); }`)
		gl.Enable(BLEND)
		gl.BlendFunc(ONE, ONE)
		gl.UseProgram(p)
		loc := gl.GetAttribLocation(p, "a_pos")
		var verts []float32
		for i := 0; i < 2048; i++ {
			// Four buckets, 512 hits each.
			bucket := float32(i%4)*8 + 16
			verts = append(verts, (bucket+0.5)/float32(n)*2-1, 0.5)
		}
		gl.EnableVertexAttribArray(loc)
		gl.VertexAttribPointerClient(loc, 2, verts, 0, 0)
		gl.DrawArrays(POINTS, 0, len(verts)/2)
		return p
	}
	expectParity(t, n, n, scenario)

	// The blended count must saturate exactly as serial accumulation does:
	// 512 additive hits of 1/255 clamp to 255.
	out := runScenario(t, engineCfg{name: "parallel", workers: 4}, n, n, scenario)
	y := (int(0.75*n) - 1 + n/2) // row of NDC y=0.5 → window y = 96
	_ = y
	found := false
	for _, b := range out.pixels {
		if b == 255 {
			found = true
			break
		}
	}
	if !found {
		t.Error("expected saturated histogram buckets")
	}
}

func TestPointRasterNegativeOrigin(t *testing.T) {
	// A size-4 point centred on the window origin hangs two pixels off the
	// left and bottom edges; only the in-bounds 2×2 corner may be shaded.
	// Regression guard for the ceil() on negative screen coordinates in
	// point setup.
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	p := buildProgram(t, gl, `
attribute vec2 a_pos;
void main() {
	gl_Position = vec4(a_pos, 0.0, 1.0);
	gl_PointSize = 4.0;
}`, `
precision mediump float;
void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }`)
	gl.UseProgram(p)
	loc := gl.GetAttribLocation(p, "a_pos")
	gl.EnableVertexAttribArray(loc)
	gl.VertexAttribPointerClient(loc, 2, []float32{-1, -1}, 0, 0)
	gl.DrawArrays(POINTS, 0, 1)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("draw error: %s", ErrName(e))
	}
	buf := make([]byte, 8*8*4)
	gl.ReadPixels(0, 0, 8, 8, RGBA, UNSIGNED_BYTE, buf)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			red := buf[(y*8+x)*4]
			if x < 2 && y < 2 {
				if red != 255 {
					t.Errorf("pixel (%d,%d) = %d, want covered", x, y, red)
				}
			} else if red != 0 {
				t.Errorf("pixel (%d,%d) = %d, want untouched", x, y, red)
			}
		}
	}
	frags, _, _, ok := gl.DrawStatsFor(p, 8, 8)
	if !ok || frags != 4 {
		t.Errorf("fragments = %d (ok=%v), want 4", frags, ok)
	}
}

func TestShaderCompilationCache(t *testing.T) {
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	src := `precision mediump float;
void main() { gl_FragColor = vec4(1.0); }`

	compile := func() *Shader {
		s := gl.CreateShader(FRAGMENT_SHADER)
		gl.ShaderSource(s, src)
		gl.CompileShader(s)
		if gl.GetShaderiv(s, COMPILE_STATUS) != 1 {
			t.Fatalf("compile: %s", gl.GetShaderInfoLog(s))
		}
		return gl.shaders[s]
	}
	a, b := compile(), compile()
	if a.compiled != b.compiled {
		t.Error("identical source compiled twice: cache miss")
	}

	// A different stage with the same source must not share the entry.
	vs := gl.CreateShader(VERTEX_SHADER)
	gl.ShaderSource(vs, `void main() { gl_Position = vec4(0.0); }`)
	gl.CompileShader(vs)
	if gl.shaders[vs].compiled == a.compiled {
		t.Error("vertex shader shares fragment cache entry")
	}

	// Destroy evicts; recompilation produces a fresh program.
	gl.Destroy()
	c := compile()
	if c.compiled == a.compiled {
		t.Error("cache survived Destroy")
	}
}

func TestParallelGateRequiresProvenProgram(t *testing.T) {
	// A fragment shader that writes gl_FragColor only conditionally leaks
	// the previous fragment's colour in serial execution; the parallel gate
	// must reject it so results stay identical.
	env := newEnv(t, device.Generic(), 8, 8, false)
	gl := env.gl
	p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main() {
	if (v_tex.x > 0.5) {
		gl_FragColor = vec4(v_tex, 0.0, 1.0);
	}
}`)
	fp := gl.programs[p].fsProg
	if fp.OutputsAlwaysWritten {
		t.Fatal("conditional gl_FragColor write wrongly proven")
	}
	if gl.parallelEligible(fp, 1<<20) {
		t.Error("parallel gate accepted a conditionally-writing program")
	}
}
