// Package raster implements triangle setup and scan conversion for the
// simulated GPU: viewport transform, edge-function rasterisation with the
// top-left fill rule, perspective-correct varying interpolation, and the
// tile enumeration a tile-based renderer needs for binning.
//
// GPGPU workloads draw two viewport-filling triangles, but the rasteriser
// is a complete general implementation so the GLES layer behaves like a
// real driver for arbitrary geometry.
package raster

import (
	"math"

	"gles2gpgpu/internal/shader"
)

// MaxVaryings is the per-vertex varying register budget (matches the GLES2
// minimum of 8 varying vectors).
const MaxVaryings = 8

// Vertex is one post-vertex-shader vertex: a clip-space position plus
// varying outputs.
type Vertex struct {
	Pos      shader.Vec4
	Varyings [MaxVaryings]shader.Vec4
	NumVar   int
}

// Triangle is a set-up triangle ready for rasterisation.
type Triangle struct {
	// Screen-space positions (pixel units) and 1/w per vertex.
	sx, sy, invW [3]float64
	varyings     [3][MaxVaryings]shader.Vec4
	numVar       int

	// Edge coefficients: E_i(x,y) = a_i*x + b_i*y + c_i, positive inside.
	a, b, c [3]float64
	area2   float64 // twice the signed area after orientation fix

	minX, minY, maxX, maxY int // inclusive pixel bounds, clipped to viewport
	valid                  bool

	// exact is set when Setup proves the dyadic-exactness conditions that
	// make incremental interpolation bit-identical (see quadfast.go).
	exact bool
}

// Setup performs viewport transform and edge setup. It returns ok=false for
// degenerate (zero-area) triangles or triangles with any vertex at w<=0
// (proper near-plane clipping is unnecessary for the workloads this
// simulator targets, matching the behaviour of GPGPU full-screen quads).
func Setup(v0, v1, v2 *Vertex, vpW, vpH int) (Triangle, bool) {
	var t Triangle
	vs := [3]*Vertex{v0, v1, v2}
	for i, v := range vs {
		w := float64(v.Pos[3])
		if w <= 0 {
			return t, false
		}
		// NDC -> window coordinates, pixel centres at integer+0.5.
		t.sx[i] = (float64(v.Pos[0])/w*0.5 + 0.5) * float64(vpW)
		t.sy[i] = (float64(v.Pos[1])/w*0.5 + 0.5) * float64(vpH)
		t.invW[i] = 1 / w
		t.varyings[i] = v.Varyings
	}
	t.numVar = v0.NumVar

	area2 := (t.sx[1]-t.sx[0])*(t.sy[2]-t.sy[0]) - (t.sy[1]-t.sy[0])*(t.sx[2]-t.sx[0])
	if area2 == 0 {
		return t, false
	}
	if area2 < 0 {
		// Flip orientation so edge functions are positive inside; GLES2
		// has culling disabled by default, so both windings rasterise.
		t.sx[1], t.sx[2] = t.sx[2], t.sx[1]
		t.sy[1], t.sy[2] = t.sy[2], t.sy[1]
		t.invW[1], t.invW[2] = t.invW[2], t.invW[1]
		t.varyings[1], t.varyings[2] = t.varyings[2], t.varyings[1]
		area2 = -area2
	}
	t.area2 = area2

	// Edge i is opposite vertex i: E_i positive inside.
	for i := 0; i < 3; i++ {
		j, k := (i+1)%3, (i+2)%3
		t.a[i] = t.sy[j] - t.sy[k]
		t.b[i] = t.sx[k] - t.sx[j]
		t.c[i] = t.sx[j]*t.sy[k] - t.sx[k]*t.sy[j]
	}

	minX := int(math.Floor(min3(t.sx[0], t.sx[1], t.sx[2])))
	maxX := int(math.Ceil(max3(t.sx[0], t.sx[1], t.sx[2]))) - 1
	minY := int(math.Floor(min3(t.sy[0], t.sy[1], t.sy[2])))
	maxY := int(math.Ceil(max3(t.sy[0], t.sy[1], t.sy[2]))) - 1
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX > vpW-1 {
		maxX = vpW - 1
	}
	if maxY > vpH-1 {
		maxY = vpH - 1
	}
	if minX > maxX || minY > maxY {
		return t, false
	}
	t.minX, t.minY, t.maxX, t.maxY = minX, minY, maxX, maxY
	t.valid = true
	t.exact = t.classifyExact()
	return t, true
}

func min3(a, b, c float64) float64 { return math.Min(a, math.Min(b, c)) }
func max3(a, b, c float64) float64 { return math.Max(a, math.Max(b, c)) }

// Bounds returns the inclusive pixel bounding box.
func (t *Triangle) Bounds() (minX, minY, maxX, maxY int) {
	return t.minX, t.minY, t.maxX, t.maxY
}

// VaryingRectBounds bounds varying component (vi, ci) over every fragment
// the triangle can emit inside the inclusive pixel rect [x0,x1]×[y0,y1]:
// every emitted float32 value lies in [lo, hi]. It only answers (ok=true)
// when all three vertices share one 1/w bit pattern: interpolation is
// then an affine function of screen position (the barycentric weights sum
// to one identically, so the perspective divide cancels), and an affine
// function over a rectangle attains its extremes at the corners. The four
// corner pixel centres are evaluated with the exact expression
// RasterizeRect uses, then the result is widened by one float32 ulp per
// side: an interior pixel's float64 evaluation differs from the exact
// affine value by far less than half a float32 ulp, so its rounded
// float32 result cannot pass the widened corner extremes. ok=false when a
// corner evaluates to NaN or an infinity.
func (t *Triangle) VaryingRectBounds(vi, ci, x0, y0, x1, y1 int) (lo, hi float32, ok bool) {
	if !t.valid || vi < 0 || vi >= t.numVar || ci < 0 || ci > 3 {
		return 0, 0, false
	}
	if t.invW[0] != t.invW[1] || t.invW[0] != t.invW[2] {
		return 0, 0, false
	}
	first := true
	for _, y := range [2]int{y0, y1} {
		py := float64(y) + 0.5
		for _, x := range [2]int{x0, x1} {
			px := float64(x) + 0.5
			var e [3]float64
			for i := 0; i < 3; i++ {
				e[i] = t.a[i]*px + t.b[i]*py + t.c[i]
			}
			l0 := e[0] / t.area2
			l1 := e[1] / t.area2
			l2 := e[2] / t.area2
			invW := l0*t.invW[0] + l1*t.invW[1] + l2*t.invW[2]
			w := 1 / invW
			v := l0*float64(t.varyings[0][vi][ci])*t.invW[0] +
				l1*float64(t.varyings[1][vi][ci])*t.invW[1] +
				l2*float64(t.varyings[2][vi][ci])*t.invW[2]
			f := float32(v * w)
			if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
				return 0, 0, false
			}
			if first || f < lo {
				lo = f
			}
			if first || f > hi {
				hi = f
			}
			first = false
		}
	}
	lo = math.Nextafter32(lo, float32(math.Inf(-1)))
	hi = math.Nextafter32(hi, float32(math.Inf(1)))
	if math.IsInf(float64(lo), 0) || math.IsInf(float64(hi), 0) {
		return 0, 0, false
	}
	return lo, hi, true
}

// topLeft reports whether edge i is a top or left edge (such edges own
// their boundary pixels under the GL fill rule).
func (t *Triangle) topLeft(i int) bool {
	// Edge i runs from vertex (i+1)%3 to (i+2)%3 in the fixed (CCW)
	// orientation. Left edge: going down (dy < 0 in y-up). Top edge:
	// horizontal and going right.
	j, k := (i+1)%3, (i+2)%3
	dx := t.sx[k] - t.sx[j]
	dy := t.sy[k] - t.sy[j]
	if dy != 0 {
		return dy < 0 // left edge in a CCW triangle (y-up)
	}
	return dx > 0 // top edge
}

// FragmentSink receives rasterised fragments. The varyings slice is reused
// between calls; copy it if retained.
type FragmentSink func(x, y int, fragCoord shader.Vec4, varyings []shader.Vec4)

// RasterizeRect scans the intersection of the triangle with the given
// inclusive pixel rectangle (a tile), emitting each covered fragment with
// perspective-correct varyings.
func (t *Triangle) RasterizeRect(x0, y0, x1, y1 int, emit FragmentSink) int {
	if !t.valid {
		return 0
	}
	if x0 < t.minX {
		x0 = t.minX
	}
	if y0 < t.minY {
		y0 = t.minY
	}
	if x1 > t.maxX {
		x1 = t.maxX
	}
	if y1 > t.maxY {
		y1 = t.maxY
	}
	if x0 > x1 || y0 > y1 {
		return 0
	}
	if t.exact && quadFast {
		return t.rasterizeRectFast(x0, y0, x1, y1, emit)
	}
	var varbuf [MaxVaryings]shader.Vec4
	count := 0
	for y := y0; y <= y1; y++ {
		py := float64(y) + 0.5
		for x := x0; x <= x1; x++ {
			px := float64(x) + 0.5
			var e [3]float64
			inside := true
			for i := 0; i < 3; i++ {
				e[i] = t.a[i]*px + t.b[i]*py + t.c[i]
				if e[i] < 0 || (e[i] == 0 && !t.topLeft(i)) {
					inside = false
					break
				}
			}
			if !inside {
				continue
			}
			// Barycentric weights.
			l0 := e[0] / t.area2
			l1 := e[1] / t.area2
			l2 := e[2] / t.area2
			invW := l0*t.invW[0] + l1*t.invW[1] + l2*t.invW[2]
			w := 1 / invW
			for vi := 0; vi < t.numVar; vi++ {
				var out shader.Vec4
				for ci := 0; ci < 4; ci++ {
					v := l0*float64(t.varyings[0][vi][ci])*t.invW[0] +
						l1*float64(t.varyings[1][vi][ci])*t.invW[1] +
						l2*float64(t.varyings[2][vi][ci])*t.invW[2]
					out[ci] = float32(v * w)
				}
				varbuf[vi] = out
			}
			fragZ := float32(0.5) // no depth buffer in this pipeline
			fc := shader.Vec4{float32(px), float32(py), fragZ, float32(invW)}
			emit(x, y, fc, varbuf[:t.numVar])
			count++
		}
	}
	return count
}

// Rasterize scans the whole triangle.
func (t *Triangle) Rasterize(emit FragmentSink) int {
	return t.RasterizeRect(t.minX, t.minY, t.maxX, t.maxY, emit)
}

// AppendFingerprint appends a byte serialisation of every field that
// determines the triangle's rasterisation output — screen positions, 1/w,
// varyings, and the clipped pixel bounds — to dst and returns it. Two
// set-up triangles with equal fingerprints emit identical fragment streams
// (coordinates, coverage and interpolated varyings, bit for bit): the edge
// coefficients and exactness classification are pure functions of the
// serialised positions. The cross-iteration tile-coherence cache uses the
// fingerprint as part of its draw-state signature.
func (t *Triangle) AppendFingerprint(dst []byte) []byte {
	p64 := func(v float64) {
		u := math.Float64bits(v)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	p32 := func(v float32) {
		u := math.Float32bits(v)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	pint := func(v int) {
		u := uint32(int32(v))
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	if !t.valid {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	for i := 0; i < 3; i++ {
		p64(t.sx[i])
		p64(t.sy[i])
		p64(t.invW[i])
	}
	pint(t.numVar)
	for vi := 0; vi < 3; vi++ {
		for r := 0; r < t.numVar; r++ {
			for ci := 0; ci < 4; ci++ {
				p32(t.varyings[vi][r][ci])
			}
		}
	}
	pint(t.minX)
	pint(t.minY)
	pint(t.maxX)
	pint(t.maxY)
	return dst
}

// TileRange returns the inclusive tile-coordinate range the triangle's
// bounding box touches for a given tile size — the binning step of a
// tile-based GPU.
func (t *Triangle) TileRange(tileW, tileH int) (tx0, ty0, tx1, ty1 int, any bool) {
	if !t.valid || tileW <= 0 || tileH <= 0 {
		return 0, 0, 0, 0, false
	}
	return t.minX / tileW, t.minY / tileH, t.maxX / tileW, t.maxY / tileH, true
}
