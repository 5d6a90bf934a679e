package gles

// The fragment sink: the one place a covered fragment is shaded and
// written. Both walks (the triangle tile walk in tiled.go and
// rasterizePoints in draw.go) hand each worker one fragSink and feed it
// fragments in walk order; the sink runs in one of two modes, fixed per
// draw:
//
//   - Lane mode, when laneCompiledFor admits the fragment program: the
//     sink buffers up to W covered fragments (their varyings packed into
//     the SoA input banks of a LaneEnv, their pixel coordinates
//     remembered), runs the whole batch through the lane-compiled program
//     (internal/shader/lanes.go), then scatters the outputs back through
//     writePixel IN GATHER ORDER.
//   - Per-fragment mode otherwise: each fragment runs at once through the
//     reference interpreter on one Env — a pooled Env for programs with
//     the WritesBeforeReads + OutputsAlwaysWritten proofs, the context's
//     own fsEnv for the rest, whose residual register state is part of
//     their observable behaviour.
//
// Gather-order scatter is what keeps lane mode bit-identical to
// per-fragment execution:
//
//   - Shading never reads the framebuffer, so deferring a fragment's
//     writePixel until its batch flushes cannot change what it computes.
//   - Blending reads the destination pixel at scatter time. Scattering in
//     gather order means every pixel's sequence of blend reads/writes is
//     exactly the per-fragment sequence — including two fragments of the
//     same pixel landing in one batch (both shade independently, then
//     blend in submission order at flush).
//   - A batch may therefore span triangles and tiles within one worker's
//     walk: the walk already visits fragments in the order the serial
//     engine would for each pixel, and flushing preserves it.
//
// Lane eligibility is gated in laneCompiledFor: the lane engine requires
// the liveness proofs because pooled LaneEnvs carry stale register lanes
// between draws exactly like pooled Envs do between fragments. The lane
// compiler picks the form from the program itself: straight-line programs
// run whole-batch, branchy or discarding ones (jacobi) under per-lane
// masks (internal/shader/lanes_masked.go). Masked batches can discard
// individual lanes, so flush consults LaneEnv.Discarded before scattering.
//
// One error policy holds in both modes: a VM error (a compiler bug) skips
// the fragment — it is not counted and writes nothing.

import (
	"gles2gpgpu/internal/shader"
)

// fragSink shades one worker's fragments. Fields are resolved once per
// draw so the per-fragment add path touches no maps and allocates nothing.
type fragSink struct {
	c *Context

	// Lane mode (lc != nil).
	lc    *shader.LaneCompiled
	lenv  *shader.LaneEnv
	lpool *shader.LaneEnvPool
	w     int // batch width
	n     int // gathered lanes in the current batch
	// Remembered scatter coordinates for the gathered lanes.
	px, py [shader.MaxLaneWidth]int32

	// Per-fragment mode (lc == nil).
	env   *shader.Env
	epool *shader.EnvPool // nil when env is the context's own fsEnv
	exec  func(*shader.Env) error

	// What open installs into the environment.
	uniforms []shader.Vec4
	sample   shader.SampleFunc

	pixels []byte
	tgtW   int
	outReg int
	hasOut bool
	mask   [4]bool
	fcReg  int

	frags                 int64
	startCycles, startTex int64

	// onWrite, when set, observes every scattered (non-discarded) pixel
	// write; the coherent walk uses it to set per-tile cover bits at
	// scatter time so discarded fragments leave their pixels uncovered.
	onWrite func(px, py int32)
}

// laneCompiledFor returns the lane-batched compiled form this draw's
// fragment program executes on, or nil when the sink shades per-fragment:
// missing liveness proofs, lane width 1 (the in-package tests' reference
// mode), or a program shader.LaneFallbackAt rejects (a backward branch;
// the GLSL compiler emits none).
func (c *Context) laneCompiledFor(fp *shader.Program) *shader.LaneCompiled {
	if c.laneWidth < 2 || !proven(fp) {
		return nil
	}
	if c.passes {
		return fp.LaneCompiledOpt(&c.prof.CostModel, c.laneWidth)
	}
	return fp.LaneCompiled(&c.prof.CostModel, c.laneWidth)
}

// proven reports whether a fragment program carries both liveness proofs:
// WritesBeforeReads (no fragment reads register state a previous fragment
// left behind) and OutputsAlwaysWritten (gl_FragColor cannot leak a
// previous fragment's value). Proven fragments are independent of each
// other and of which Env runs them, so they may be shaded in any order, on
// pooled Envs, by any number of workers.
func proven(fp *shader.Program) bool {
	return fp.WritesBeforeReads && fp.OutputsAlwaysWritten
}

// fsLanePoolFor returns the LaneEnv pool for the current fragment program
// at the current width, recreating it when either changes.
func (c *Context) fsLanePoolFor(fp *shader.Program) *shader.LaneEnvPool {
	if c.fsLanePool == nil || c.fsLanePool.Program() != fp || c.fsLanePool.Width() != c.laneWidth {
		c.fsLanePool = shader.NewLaneEnvPool(fp, c.laneWidth)
	}
	return c.fsLanePool
}

// newFragSink prepares a draw's sink template: the execution mode, its
// environment pool, and the scatter state (target, gl_FragColor register,
// colour mask) resolved once. It touches per-Context pools, so it runs on
// the draw goroutine; each worker then takes its own copy with open.
func (c *Context) newFragSink(p *Program, tgt renderTarget, sample shader.SampleFunc) fragSink {
	fp := p.fsProg
	out, hasOut := fp.LookupOutput("gl_FragColor")
	s := fragSink{
		c:        c,
		pixels:   tgt.pixels,
		tgtW:     tgt.w,
		outReg:   out.Reg,
		hasOut:   hasOut,
		mask:     c.colorMask,
		fcReg:    p.fragCoordReg,
		uniforms: p.fsUniforms,
		sample:   sample,
	}
	if lc := c.laneCompiledFor(fp); lc != nil {
		s.lc, s.w = lc, lc.Width()
		s.lpool = c.fsLanePoolFor(fp)
		return s
	}
	s.exec = shader.Executor(fp, &c.prof.CostModel, c.passes)
	if proven(fp) {
		s.epool = c.fsPool(fp)
	} else {
		s.env = c.fsEnv
	}
	return s
}

// open returns one worker's own copy of the sink template, ready for
// fragments: a pooled environment taken, the draw's uniforms and the
// worker's per-slot fetch functions installed. It runs on the worker
// goroutine that feeds the sink, so the copy and any environment the pool
// must allocate come from that worker's allocation cache. Allocated side
// by side on the draw goroutine, two workers' per-fragment state shares
// cache lines and their writes contend: a 2-worker 128² jacobi8 loop
// with coherence off measured about 1.3× slower that way.
func (s fragSink) open(texFns []shader.TexFunc) *fragSink {
	if s.lc != nil {
		s.lenv = s.lpool.Get()
		s.lenv.SetUniforms(s.uniforms)
		s.lenv.Sample = s.sample
		s.lenv.Samplers = texFns
	} else {
		if s.epool != nil {
			s.env = s.epool.Get()
		}
		s.env.Uniforms = s.uniforms
		s.env.Sample = s.sample
		s.env.Samplers = texFns
	}
	s.startCycles, s.startTex = s.counters()
	return &s
}

// counters returns the running Cycles/TexFetches totals of the sink's
// environment (flush first for exact lane-mode attribution).
func (s *fragSink) counters() (cycles, texFetches int64) {
	if s.lc != nil {
		return s.lenv.Cycles, s.lenv.TexFetches
	}
	return s.env.Cycles, s.env.TexFetches
}

// add shades one covered fragment: at once in per-fragment mode,
// or gathered into the current batch in lane mode, flushing when the batch
// reaches the lane width. Lane-mode varyings are copied into the SoA banks
// immediately — the rasteriser reuses its callback slice.
func (s *fragSink) add(px, py int, fc shader.Vec4, varyings []shader.Vec4) {
	if s.lc == nil {
		s.shade(px, py, fc, varyings)
		return
	}
	lane := s.n
	env := s.lenv
	for reg, v := range varyings {
		env.SetInput(lane, reg, v)
	}
	if s.fcReg >= 0 {
		env.SetInput(lane, s.fcReg, fc)
	}
	s.px[lane] = int32(px)
	s.py[lane] = int32(py)
	s.n++
	if s.n == s.w {
		s.flush()
	}
}

// shade runs one fragment in per-fragment mode.
func (s *fragSink) shade(px, py int, fc shader.Vec4, varyings []shader.Vec4) {
	env := s.env
	env.Discarded = false
	for reg, v := range varyings {
		env.Inputs[reg] = v
	}
	if s.fcReg >= 0 {
		env.Inputs[s.fcReg] = fc
	}
	if err := s.exec(env); err != nil {
		return
	}
	s.frags++
	if env.Discarded || !s.hasOut {
		return
	}
	s.c.writePixel(s.pixels, (py*s.tgtW+px)*4, env.Outputs[s.outReg], s.mask)
	if s.onWrite != nil {
		s.onWrite(int32(px), int32(py))
	}
}

// flush runs the gathered lanes as one batch and scatters the outputs in
// gather order (see the ordering argument in the file comment). A no-op in
// per-fragment mode, which never gathers.
func (s *fragSink) flush() {
	n := s.n
	if n == 0 {
		return
	}
	s.n = 0
	env := s.lenv
	env.N = n
	s.lc.Run(env)
	s.frags += int64(n)
	if !s.hasOut {
		return
	}
	masked := s.lc.Masked()
	for l := 0; l < n; l++ {
		if masked && env.Discarded[l] {
			continue // the lane executed a KIL: no pixel write
		}
		col := env.Output(l, s.outReg)
		off := (int(s.py[l])*s.tgtW + int(s.px[l])) * 4
		s.c.writePixel(s.pixels, off, col, s.mask)
		if s.onWrite != nil {
			s.onWrite(s.px[l], s.py[l])
		}
	}
}

// finish flushes the partial final batch, returns the worker's share of
// the draw measurement, and puts a pooled environment back in its pool.
func (s *fragSink) finish() drawStats {
	s.flush()
	cycles, tex := s.counters()
	st := drawStats{fragments: s.frags, cycles: cycles - s.startCycles, texFetches: tex - s.startTex}
	if s.lc != nil {
		s.lpool.Put(s.lenv)
		s.lenv = nil
	} else if s.epool != nil {
		s.epool.Put(s.env)
		s.env = nil
	}
	return st
}
