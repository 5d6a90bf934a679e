package gles

import (
	"testing"

	"gles2gpgpu/internal/raster"
)

// expectTilingParity demands identical framebuffers and virtual-time
// counters across {tile sizes} × {workers} × {lane width} × {quad fast
// path on/off}, referenced against the serial walk: one tile covering the
// target, one worker, per-fragment on the interpreter.
func expectTilingParity(t *testing.T, w, h int, scenario func(gl *Context) uint32) {
	t.Helper()
	refCfg := reference
	refCfg.tileSize = max(w, h)
	ref := runScenario(t, refCfg, w, h, scenario)
	defer raster.SetQuadFast(true)
	for _, cfg := range []struct {
		engineCfg
		quadFast bool
	}{
		{engineCfg{name: "tiles-4w", workers: 4}, true},
		{engineCfg{name: "tiles-4w-perfrag", workers: 4, laneWidth: 1}, true},
		{engineCfg{name: "tiles-4w-small", workers: 4, tileSize: 16}, true},
		{engineCfg{name: "tiles-4w-tiny", workers: 4, tileSize: 8, laneWidth: 1}, true},
		{engineCfg{name: "tiles-4w-huge", workers: 4, tileSize: 4096}, true},
		{engineCfg{name: "tiles-serial", workers: 1}, true},
		{engineCfg{name: "tiles-4w-noquadfast", workers: 4}, false},
	} {
		raster.SetQuadFast(cfg.quadFast)
		got := runScenario(t, cfg.engineCfg, w, h, scenario)
		raster.SetQuadFast(true)
		expectSame(t, cfg.name, ref, got)
	}
}

// TestTilingParityTexturedQuad: the canonical GPGPU draw through the tiled
// engine — texture fetches, varying interpolation, full coverage.
func TestTilingParityTexturedQuad(t *testing.T) {
	const n = 128
	expectTilingParity(t, n, n, func(gl *Context) uint32 {
		checkerTexture(gl, n, n)
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
void main() {
	vec4 s = texture2D(u_tex, v_tex);
	gl_FragColor = vec4(s.xy, fract(s.z + v_tex.x), 1.0);
}`)
		gl.UseProgram(p)
		gl.Uniform1i(gl.GetUniformLocation(p, "u_tex"), 0)
		drawQuad(t, gl, p)
		return p
	})
}

// TestTilingParityNonPow2Viewport: a 100×84 target exercises partial edge
// tiles and rejects the quad fast path (area2 not a power of two), so the
// tiled engine must agree through the reference interpolator too.
func TestTilingParityNonPow2Viewport(t *testing.T) {
	expectTilingParity(t, 100, 84, func(gl *Context) uint32 {
		checkerTexture(gl, 100, 84)
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
uniform sampler2D u_tex;
void main() {
	gl_FragColor = texture2D(u_tex, v_tex);
}`)
		gl.UseProgram(p)
		gl.Uniform1i(gl.GetUniformLocation(p, "u_tex"), 0)
		drawQuad(t, gl, p)
		return p
	})
}

// TestTilingParityOverlap: overlapping blended triangles — the case whose
// per-pixel shade order the binning must preserve in submission order.
func TestTilingParityOverlap(t *testing.T) {
	const n = 128
	expectTilingParity(t, n, n, func(gl *Context) uint32 {
		p := buildProgram(t, gl, quadVS, `
precision mediump float;
varying vec2 v_tex;
void main() {
	gl_FragColor = vec4(v_tex.x * 0.4, v_tex.y * 0.4, 0.2, 0.5);
}`)
		gl.UseProgram(p)
		gl.Enable(BLEND)
		gl.BlendFunc(SRC_ALPHA, ONE_MINUS_SRC_ALPHA)
		// Two overlapping quads (12 vertices): blending makes per-pixel
		// shade order observable.
		loc := gl.GetAttribLocation(p, "a_pos")
		gl.EnableVertexAttribArray(loc)
		verts := []float32{
			-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1,
			-0.75, -0.75, 0.9, -0.6, 0.8, 0.85, -0.75, -0.75, 0.8, 0.85, -0.9, 0.7,
		}
		gl.VertexAttribPointerClient(loc, 2, verts, 0, 0)
		gl.DrawArrays(TRIANGLES, 0, 12)
		gl.Finish()
		return p
	})
}
