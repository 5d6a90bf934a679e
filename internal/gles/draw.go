package gles

import (
	"math"

	"gles2gpgpu/internal/gpu"
	"gles2gpgpu/internal/raster"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/timing"
)

// PrimeStats injects measured per-draw work amounts for (program, target
// w×h) into the timing-replay cache. Harnesses use it to run paper-sized
// timing simulations after measuring per-fragment costs functionally at a
// smaller size — exact for kernels whose per-fragment work is
// size-independent (all kernels in this repository).
func (c *Context) PrimeStats(program uint32, w, h int, fragments, cycles, texFetches int64) {
	c.statCache[statKey{program: program, w: w, h: h}] = drawStats{
		fragments: fragments, cycles: cycles, texFetches: texFetches, valid: true,
	}
}

// DrawStatsFor returns the cached work amounts measured by the last
// functional draw of (program, w×h).
func (c *Context) DrawStatsFor(program uint32, w, h int) (fragments, cycles, texFetches int64, ok bool) {
	st, found := c.statCache[statKey{program: program, w: w, h: h}]
	if !found || !st.valid {
		return 0, 0, 0, false
	}
	return st.fragments, st.cycles, st.texFetches, true
}

// ColorMask controls which channels draws write. Disabling the alpha
// channel is how the fp24 kernels cut output traffic to 3 bytes per element
// (paper §II Kernel Code: "input and output can be restricted in
// reading/writing only 3 out of the 4 bytes of each element, reducing the
// bandwidth requirements by 25%").
func (c *Context) ColorMask(r, g, b, a bool) {
	c.apiCost()
	c.colorMask = [4]bool{r, g, b, a}
}

// DrawArrays renders primitives with the current program.
//
// Functionally it runs the compiled vertex shader per vertex, assembles
// triangles, rasterises and runs the fragment shader per fragment, writing
// the target's pixel store. For timing it submits one render job to the
// TBDR machine with the measured fragment count, cycle count and texture
// fetches. In timing-only mode the measured amounts from the last
// functional draw of the same (program, target-size) are replayed.
func (c *Context) DrawArrays(mode Enum, first, count int) {
	p := c.programs[c.current]
	if p == nil || !p.linked {
		c.setErr(INVALID_OPERATION)
		return
	}
	switch mode {
	case POINTS, TRIANGLES, TRIANGLE_STRIP, TRIANGLE_FAN:
	default:
		c.setErr(INVALID_ENUM)
		return
	}
	if first < 0 || count < 0 {
		c.setErr(INVALID_VALUE)
		return
	}
	if count == 0 || (mode != POINTS && count < 3) {
		return
	}
	tgt, ok := c.currentTarget()
	if !ok {
		c.setErr(INVALID_FRAMEBUFFER_OPERATION)
		return
	}

	// Driver-side vertex sourcing costs and readiness (paper §II Vertex
	// Processing): client arrays pay a per-draw copy, VBOs pay only their
	// usage-hint consistency cost.
	var extraCPU timing.Time
	var verticesReady timing.Time
	for i := range c.attribs {
		a := &c.attribs[i]
		if !a.enabled {
			continue
		}
		if a.clientData != nil {
			stride := a.strideBytes
			if stride == 0 {
				stride = a.size * 4
			}
			bytes := count * stride
			extraCPU += c.prof.BufAlloc.AllocTime(bytes) +
				timing.Time(int64(c.prof.ClientArrayCostPerByte)*int64(bytes))
			continue
		}
		if b := c.buffers[a.buffer]; b != nil {
			extraCPU += c.prof.VBOHintCost[usageHint(b.usage)]
			if !c.functionalOnly {
				if r := c.m.ReadyAt(b.res); r > verticesReady {
					verticesReady = r
				}
			}
		}
	}

	// Sampled textures: the scheduling dependencies of the fragment pass.
	var reads []gpu.ResID
	samplers := make([]*Texture, len(p.samplerUnits))
	for i, unit := range p.samplerUnits {
		t := c.textures[c.boundTex[unit]]
		samplers[i] = t
		if t != nil && t.allocated {
			reads = append(reads, t.res)
		}
	}

	key := statKey{program: c.current, w: tgt.w, h: tgt.h}
	if c.timingOnly {
		if st, ok := c.statCache[key]; ok && st.valid {
			c.submitJob(p, tgt, st, reads, verticesReady, count, extraCPU)
			return
		}
		// No cached measurement: fall through to a functional draw.
	}

	st := c.executeDraw(p, tgt, mode, first, count, samplers)
	if !st.valid {
		return // error already recorded
	}
	c.statCache[key] = st
	if c.functionalOnly {
		return // functional effects only: nothing reaches the timing model
	}
	c.submitJob(p, tgt, st, reads, verticesReady, count, extraCPU)
}

func (c *Context) submitJob(p *Program, tgt renderTarget, st drawStats, reads []gpu.ResID, verticesReady timing.Time, vertexCount int, extraCPU timing.Time) {
	bpp := 4
	texBytes := st.texFetches
	if !c.colorMask[3] {
		bpp = 3
		// The paper's fp24 kernels read only 3 of 4 bytes per element,
		// nominally a 25% bandwidth saving; cache-line granularity lets
		// the texture path realise about half of it.
		texBytes = texBytes * 7 / 8
	}
	c.m.Draw(gpu.DrawJob{
		Target:           tgt.res,
		TargetW:          tgt.w,
		TargetH:          tgt.h,
		CoveredPixels:    st.fragments,
		FragCycles:       st.cycles,
		TexFetches:       texBytes,
		BytesPerPixelOut: bpp,
		Reads:            reads,
		VerticesReady:    verticesReady,
		VertexCount:      vertexCount,
		ExtraCPUCost:     extraCPU,
	})
}

// executeDraw runs the functional pipeline and measures the work.
func (c *Context) executeDraw(p *Program, tgt renderTarget, mode Enum, first, count int, samplers []*Texture) drawStats {
	vp, fp := p.vsProg, p.fsProg
	if c.envProg != p {
		c.vsEnv = shader.NewEnv(vp)
		c.fsEnv = shader.NewEnv(fp)
		c.envProg = p
	}
	vsEnv := c.vsEnv
	vsEnv.Uniforms = p.vsUniforms
	// Draw-time sampler specialization: per-slot fetch functions resolved
	// once, with the generic closure retained for out-of-range slots.
	texFns := specializeSamplers(samplers)
	sample := envSampler(samplers)

	execVS := shader.Executor(vp, &c.prof.CostModel, c.passes)

	// Lane adoption signal: count draws that wanted lane-batched shading
	// but must run per-fragment (glslint's lane-fallback finding says why;
	// the daemon exports the count per device).
	if c.laneWidth >= 2 && c.laneCompiledFor(fp) == nil {
		c.laneFallbackDraws++
	}

	// Vertex stage.
	posOut, hasPos := vp.LookupOutput("gl_Position")
	if !hasPos {
		c.setErr(INVALID_OPERATION)
		return drawStats{}
	}
	psOut, hasPS := vp.LookupOutput("gl_PointSize")
	pointSizes := make([]float32, 0)
	if mode == POINTS {
		pointSizes = make([]float32, count)
	}
	verts := make([]raster.Vertex, count)
	for vi := 0; vi < count; vi++ {
		vsEnv.Reset()
		for _, in := range vp.Inputs {
			val, ok := c.attribValue(in.Reg, first+vi)
			if !ok {
				c.setErr(INVALID_OPERATION)
				return drawStats{}
			}
			vsEnv.Inputs[in.Reg] = shader.Vec4(val)
		}
		if err := execVS(vsEnv); err != nil {
			c.setErr(INVALID_OPERATION)
			return drawStats{}
		}
		v := &verts[vi]
		v.Pos = vsEnv.Outputs[posOut.Reg]
		v.NumVar = fp.NumInputs
		if v.NumVar > raster.MaxVaryings {
			c.setErr(INVALID_OPERATION)
			return drawStats{}
		}
		for reg := 0; reg < fp.NumInputs; reg++ {
			src := p.varyingMap[reg]
			if src >= 0 {
				v.Varyings[reg] = vsEnv.Outputs[src]
			}
		}
		if mode == POINTS {
			size := float32(1)
			if hasPS {
				if s := vsEnv.Outputs[psOut.Reg][0]; s > 1 {
					size = s
				}
			}
			pointSizes[vi] = size
		}
	}

	if mode == POINTS {
		return c.rasterizePoints(p, tgt, verts, pointSizes, texFns, sample)
	}

	// Primitive assembly.
	var tris [][3]int
	switch mode {
	case TRIANGLES:
		for i := 0; i+2 < count; i += 3 {
			tris = append(tris, [3]int{i, i + 1, i + 2})
		}
	case TRIANGLE_STRIP:
		for i := 0; i+2 < count; i++ {
			if i%2 == 0 {
				tris = append(tris, [3]int{i, i + 1, i + 2})
			} else {
				tris = append(tris, [3]int{i + 1, i, i + 2})
			}
		}
	case TRIANGLE_FAN:
		for i := 1; i+1 < count; i++ {
			tris = append(tris, [3]int{0, i, i + 1})
		}
	}

	vpX, vpY, vpW, vpH := c.viewport[0], c.viewport[1], c.viewport[2], c.viewport[3]
	if vpW == 0 || vpH == 0 {
		vpW, vpH = tgt.w, tgt.h
	}

	// Triangle setup up front: the tile walk bins the full primitive list,
	// and the bounding-box areas give the fragment estimate that gates
	// parallel shading.
	setups := make([]raster.Triangle, 0, len(tris))
	var estFrags int64
	for _, tri := range tris {
		t, ok := raster.Setup(&verts[tri[0]], &verts[tri[1]], &verts[tri[2]], vpW, vpH)
		if !ok {
			continue
		}
		x0, y0, x1, y1 := t.Bounds()
		estFrags += int64(x1-x0+1) * int64(y1-y0+1)
		setups = append(setups, t)
	}
	return c.shadeTriangles(p, tgt, setups, vpX, vpY, samplers, texFns, sample, estFrags)
}

// rasterizePoints renders GL_POINTS: each vertex covers a PointSize-sized
// square of fragments with flat (uninterpolated) varyings and a
// gl_PointCoord sweeping the square — the classic GPGPU *scatter*
// primitive on ES2-class hardware. Points shade in submission order on one
// worker, or split across workers in contiguous runs when their pixel
// rects are pairwise disjoint (see parallel.go).
func (c *Context) rasterizePoints(p *Program, tgt renderTarget, verts []raster.Vertex, sizes []float32, texFns []shader.TexFunc, sample shader.SampleFunc) drawStats {
	vpX, vpY, vpW, vpH := c.viewport[0], c.viewport[1], c.viewport[2], c.viewport[3]
	if vpW == 0 || vpH == 0 {
		vpW, vpH = tgt.w, tgt.h
	}

	// Precompute each point's raster footprint; the parallel split needs
	// the full list to prove the rects pairwise disjoint.
	rects := make([]pointRect, 0, len(verts))
	var estFrags int64
	for vi := range verts {
		v := &verts[vi]
		w := v.Pos[3]
		if w <= 0 {
			continue
		}
		sx := (float64(v.Pos[0])/float64(w)*0.5 + 0.5) * float64(vpW)
		sy := (float64(v.Pos[1])/float64(w)*0.5 + 0.5) * float64(vpH)
		size := float64(sizes[vi])
		if size < 1 {
			size = 1
		}
		half := size / 2
		x0 := int(math.Ceil(sx - half - 0.5))
		y0 := int(math.Ceil(sy - half - 0.5))
		n := int(size)
		if n < 1 {
			n = 1
		}
		estFrags += int64(n) * int64(n)
		rects = append(rects, pointRect{
			vi: vi, x0: x0, y0: y0, n: n, sx: sx, sy: sy, size: size, invW: 1 / w,
		})
	}
	nw := 1
	if c.parallelEligible(p.fsProg, estFrags) && len(rects) >= 2 &&
		c.pointRectsDisjoint(rects, tgt, vpX, vpY, vpW, vpH) {
		nw = min(c.workers, len(rects))
	}

	proto := c.newFragSink(p, tgt, sample)
	per := (len(rects) + nw - 1) / nw
	results := make([]drawStats, nw)
	c.runWorkers(nw, func(wi int) {
		sink := proto.open(texFns)
		lo, hi := wi*per, min((wi+1)*per, len(rects))
		for ri := lo; ri < hi; ri++ {
			r := &rects[ri]
			v := &verts[r.vi]
			// Flat varyings, with gl_PointCoord written into its own
			// input register per fragment.
			in := v.Varyings
			x0 := r.sx - r.size/2
			y0 := r.sy - r.size/2
			for py := r.y0; py < r.y0+r.n; py++ {
				for px := r.x0; px < r.x0+r.n; px++ {
					tx, ty := vpX+px, vpY+py
					if tx < 0 || ty < 0 || tx >= tgt.w || ty >= tgt.h || px < 0 || py < 0 || px >= vpW || py >= vpH {
						continue
					}
					if p.pointCoordReg >= 0 {
						in[p.pointCoordReg] = shader.Vec4{
							float32((float64(px) + 0.5 - x0) / r.size),
							float32((float64(py) + 0.5 - y0) / r.size),
							0, 0,
						}
					}
					fc := shader.Vec4{float32(px) + 0.5, float32(py) + 0.5, 0.5, r.invW}
					sink.add(tx, ty, fc, in[:v.NumVar])
				}
			}
		}
		results[wi] = sink.finish()
	})

	st := drawStats{valid: true}
	for _, r := range results {
		st.add(r)
	}
	return st
}

// writePixel stores a fragment colour with blending and the colour mask
// applied (the framebuffer stage of the pipeline).
func (c *Context) writePixel(pixels []byte, off int, col shader.Vec4, mask [4]bool) {
	if c.blendEnabled {
		for ci := 0; ci < 4; ci++ {
			if !mask[ci] {
				continue
			}
			dst := float32(pixels[off+ci]) / 255
			v := col[ci]*blendFactor(c.blendSrc, col, ci) + dst*blendFactor(c.blendDst, col, ci)
			pixels[off+ci] = encodeChannel(v)
		}
		return
	}
	for ci := 0; ci < 4; ci++ {
		if mask[ci] {
			pixels[off+ci] = encodeChannel(col[ci])
		}
	}
}

// encodeChannel converts a shader output in [0,1] to a stored byte with
// round-to-nearest, the conversion the [13] GPGPU encoding relies on. It
// delegates to the shader package's canonical definition so the OpQUANT
// instruction emitted by pass fusion applies the bit-identical conversion.
func encodeChannel(v float32) byte {
	return shader.EncodeChannelByte(v)
}
