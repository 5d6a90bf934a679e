package gles

import (
	"fmt"
	"strings"
	"testing"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/shader"
)

// expectPassesParity demands identical framebuffer bytes and identical
// virtual-time counters across the execution matrix {per-fragment, lanes}
// × {passes on, off} × {1, 4 workers}. The reference is the plainest
// configuration: serial per-fragment interpreter, passes off.
func expectPassesParity(t *testing.T, w, h int, scenario func(gl *Context) uint32) {
	t.Helper()
	off := false
	refCfg := reference
	refCfg.passes = &off
	ref := runScenario(t, refCfg, w, h, scenario)
	for _, workers := range []int{1, 4} {
		for _, width := range []int{1, shader.DefaultLaneWidth} {
			for _, passes := range []bool{false, true} {
				if workers == 1 && width == 1 && !passes {
					continue
				}
				c := engineCfg{
					name:    fmt.Sprintf("lw%d-w%d-passes=%v", width, workers, passes),
					workers: workers, laneWidth: width, passes: &passes,
				}
				expectSame(t, c.name, ref, runScenario(t, c, w, h, scenario))
			}
		}
	}
}

// TestPassesParityOptimisableShader: a shader built to give the passes
// work — dead assignments, copies of uniforms, constant subexpressions —
// alongside texturing and an unrolled loop. Everything observable must be
// bit-identical with the passes on or off.
func TestPassesParityOptimisableShader(t *testing.T) {
	const n = 64
	expectPassesParity(t, n, n, func(gl *Context) uint32 {
		checkerTexture(gl, n, n)
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
uniform float u_k;
void main() {
	float dead = v_tex.x * 3.0 + u_k;
	dead = dead * dead;
	float copy = u_k;
	float folded = (0.25 + 0.5) * 0.5;
	vec4 s = texture2D(u_tex, v_tex);
	float acc = 0.0;
	for (int i = 0; i < 4; i++) {
		acc += s.x * copy + folded;
	}
	gl_FragColor = vec4(fract(acc), s.yz, 1.0);
}`)
		gl.UseProgram(p)
		gl.Uniform1i(gl.GetUniformLocation(p, "u_tex"), 0)
		gl.Uniform1f(gl.GetUniformLocation(p, "u_k"), 0.37)
		drawQuad(t, gl, p)
		return p
	})
}

// TestPassesParityDiscard: dead code around a data-dependent discard — the
// kill path, cycle charges of killed fragments and the dead-store
// elimination must all agree across the matrix.
func TestPassesParityDiscard(t *testing.T) {
	const n = 64
	expectPassesParity(t, n, n, func(gl *Context) uint32 {
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main() {
	float unused = v_tex.y * 9.0;
	if (v_tex.x > 0.5) discard;
	gl_FragColor = vec4(v_tex, 0.5, 1.0);
}`)
		gl.UseProgram(p)
		drawQuad(t, gl, p)
		return p
	})
}

// TestPassesWiringAttachesOptimized proves CompileShader actually runs the
// pass pipeline: with passes enabled the cached program carries an
// optimised form that did something; with SetPasses(false) it does not.
func TestPassesWiringAttachesOptimized(t *testing.T) {
	src := `
precision mediump float;
varying vec2 v_tex;
void main() {
	float dead = v_tex.x * 2.0;
	dead = dead + 1.0;
	gl_FragColor = vec4(v_tex, 0.0, 1.0);
}`
	for _, passes := range []bool{true, false} {
		env := newEnv(t, device.Generic(), 4, 4, false)
		gl := env.gl
		gl.SetPasses(passes)
		s := gl.CreateShader(FRAGMENT_SHADER)
		gl.ShaderSource(s, src)
		gl.CompileShader(s)
		if gl.GetShaderiv(s, COMPILE_STATUS) != 1 {
			t.Fatalf("compile: %s", gl.GetShaderInfoLog(s))
		}
		o := gl.shaders[s].compiled.Optimized()
		if passes && o == nil {
			t.Errorf("passes on: no optimised form attached")
		}
		if passes && o != nil && o.DeadInsts == 0 {
			t.Errorf("passes on: optimised form eliminated nothing")
		}
		if !passes && o != nil {
			t.Errorf("passes off: optimised form attached anyway")
		}
		gl.Destroy()
	}
}

// TestStrictLinkLimits: the dependent-texture-read depth is invisible to
// the compile-time counters, so a five-deep fetch chain compiles on the
// VideoCore profile — but with strict link-time checking enabled the link
// fails with the dataflow diagnostic, as the paper's drivers do.
func TestStrictLinkLimits(t *testing.T) {
	src := `
precision mediump float;
uniform sampler2D u_tex;
varying vec2 v_tex;
void main() {
	vec2 c = v_tex;
	c = texture2D(u_tex, c).xy;
	c = texture2D(u_tex, c).xy;
	c = texture2D(u_tex, c).xy;
	c = texture2D(u_tex, c).xy;
	c = texture2D(u_tex, c).xy;
	gl_FragColor = vec4(c, 0.0, 1.0);
}`
	link := func(strict bool) (int, string, *Context) {
		env := newEnv(t, device.VideoCoreIV(), 4, 4, false)
		gl := env.gl
		gl.SetStrictLimits(strict)
		vs := gl.CreateShader(VERTEX_SHADER)
		gl.ShaderSource(vs, quadVS)
		gl.CompileShader(vs)
		fs := gl.CreateShader(FRAGMENT_SHADER)
		gl.ShaderSource(fs, src)
		gl.CompileShader(fs)
		if gl.GetShaderiv(fs, COMPILE_STATUS) != 1 {
			t.Fatalf("compile-time limits should not see dependent reads: %s", gl.GetShaderInfoLog(fs))
		}
		p := gl.CreateProgram()
		gl.AttachShader(p, vs)
		gl.AttachShader(p, fs)
		gl.LinkProgram(p)
		return gl.GetProgramiv(p, LINK_STATUS), gl.GetProgramInfoLog(p), gl
	}
	status, _, gl := link(false)
	gl.Destroy()
	if status != 1 {
		t.Fatalf("default link should accept the shader")
	}
	status, log, gl := link(true)
	gl.Destroy()
	if status != 0 {
		t.Fatalf("strict link should reject the five-deep fetch chain")
	}
	if !strings.Contains(log, "dependent texture reads") {
		t.Errorf("link log %q, want the dependent-texture-read diagnostic", log)
	}
}
