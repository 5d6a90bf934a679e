package gles

import (
	"bytes"
	"testing"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/raster"
)

// runScenarioTiled runs a scenario with an explicit tile walk: tile size,
// worker count and backend.
func runScenarioTiled(t *testing.T, workers, tileSize int, jit bool, w, h int, scenario func(gl *Context) uint32) drawOutcome {
	t.Helper()
	env := newEnv(t, device.Generic(), w, h, false)
	gl := env.gl
	gl.SetWorkers(workers)
	gl.tileSize = tileSize
	gl.SetJIT(jit)
	defer gl.Destroy()
	prog := scenario(gl)
	if e := gl.GetError(); e != NO_ERROR {
		t.Fatalf("scenario error: %s", ErrName(e))
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

// expectTilingParity demands identical framebuffers and virtual-time
// counters across {tile sizes} × {workers} × {backend} × {quad fast path
// on/off}, referenced against the serial walk: one tile covering the
// target, one worker, the interpreter.
func expectTilingParity(t *testing.T, w, h int, scenario func(gl *Context) uint32) {
	t.Helper()
	ref := runScenarioTiled(t, 1, max(w, h), false, w, h, scenario)
	defer raster.SetQuadFast(true)
	for _, cfg := range []struct {
		name     string
		workers  int
		tileSize int
		jit      bool
		quadFast bool
	}{
		{"tiles-4w", 4, DefaultTileSize, true, true},
		{"tiles-4w-interp", 4, DefaultTileSize, false, true},
		{"tiles-4w-small", 4, 16, true, true},
		{"tiles-4w-tiny", 4, 8, false, true},
		{"tiles-4w-huge", 4, 4096, true, true},
		{"tiles-serial", 1, DefaultTileSize, true, true},
		{"tiles-4w-noquadfast", 4, DefaultTileSize, true, false},
	} {
		raster.SetQuadFast(cfg.quadFast)
		got := runScenarioTiled(t, cfg.workers, cfg.tileSize, cfg.jit, w, h, scenario)
		raster.SetQuadFast(true)
		if !bytes.Equal(ref.pixels, got.pixels) {
			for i := range ref.pixels {
				if ref.pixels[i] != got.pixels[i] {
					t.Fatalf("%s: framebuffers diverge at byte %d (pixel %d): ref %d, got %d",
						cfg.name, i, i/4, ref.pixels[i], got.pixels[i])
				}
			}
		}
		if ref.fragments != got.fragments {
			t.Errorf("%s: fragments: %d vs %d", cfg.name, ref.fragments, got.fragments)
		}
		if ref.cycles != got.cycles {
			t.Errorf("%s: cycles: %d vs %d", cfg.name, ref.cycles, got.cycles)
		}
		if ref.texFetches != got.texFetches {
			t.Errorf("%s: tex fetches: %d vs %d", cfg.name, ref.texFetches, got.texFetches)
		}
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
