package main

// iterative-graphs: one caller stepping state loops and running vision
// graphs in-process. It exercises what paper-figures bypasses: the tile
// coherence cache (jacobi8 to convergence, particles, reaction-diffusion),
// divergence-masked lanes (branchy fp32 jacobi), the GL_POINTS scatter path
// (a blended histogram) and pipeline planning with pass fusion (sepconv,
// sobel, histeq, pyramid).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/pipeline"
	"gles2gpgpu/internal/timing"
)

const (
	// iterGrid is the state and image edge length.
	iterGrid = 128
	// iterPassS is the nominal host time of one pass over every loop and
	// graph; a run makes seconds/iterPassS passes (at least two).
	iterPassS = 2.0
	// Fixed step counts of the loops that do not run to convergence.
	jacobiSteps, particleSteps, rdSteps = 60, 200, 200
	// Each vision graph runs graphRuns times per pass, cycling through
	// graphImages source images.
	graphRuns, graphImages = 12, 4
	// Histogram shape: histRounds sets of samples scattered as GL_POINTS
	// into bins, each hit adding 1/255 to an 8-bit bin (no bin reaches
	// saturation).
	histBins, histSamples, histRounds = 128, 8192, 8
)

// iterOp is one loop or graph of a pass. run executes it once on the
// op's engine and returns a checksum of its final state.
type iterOp struct {
	name string
	e    *core.Engine
	run  func(ctx context.Context, tr *tracer, parent, op int64) (uint64, error)
}

// iterOutcome is what one op run produced: its checksum and the virtual
// time it added.
type iterOutcome struct {
	sum     uint64
	virtual timing.Time
}

// iterSet is a full set of ops on their own engines.
type iterSet struct {
	ops   []iterOp
	plans []*pipeline.Plan
}

// iterEngine builds an engine for the iterative workload.
func iterEngine(tr *tracer, w, h, workers int) (*core.Engine, error) {
	var e *core.Engine
	err := tr.do("core.new_engine", 0, 0, func() error {
		var err error
		e, err = core.NewEngine(core.Config{
			Device: device.Generic(),
			Width:  w, Height: h,
			Swap:    core.SwapNone,
			Target:  core.TargetTexture,
			UseVBO:  true,
			Workers: workers,
		})
		return err
	})
	return e, err
}

// plate is a unit-range grid with one edge held hot. Which edge depends on
// the seed; by symmetry every choice takes the same number of steps.
func plate(n int, seed int64) *codec.Matrix {
	g := codec.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		switch seed & 3 {
		case 0:
			g.Set(i, 0, 0.9)
		case 1:
			g.Set(i, n-1, 0.9)
		case 2:
			g.Set(0, i, 0.9)
		default:
			g.Set(n-1, i, 0.9)
		}
	}
	return g
}

// fnv folds bytes into an FNV-1a hash.
func fnv(sum uint64, data []byte) uint64 {
	const prime = 1099511628211
	for _, b := range data {
		sum = (sum ^ uint64(b)) * prime
	}
	return sum
}

const fnvBasis = uint64(14695981039346656037)

// newIterSet builds every op's engine and compiles its kernels and plans.
// Every op runs once more at the end of set-up, so kernels are compiled
// and plans have primed the timing cache fusion needs.
func newIterSet(ctx context.Context, tr *tracer, seed int64, workers int) (*iterSet, error) {
	s := &iterSet{}
	n := iterGrid
	stepper := func(name string, mk func(e *core.Engine) (core.Runner, error), steps int, converge bool) error {
		e, err := iterEngine(tr, n, n, workers)
		if err != nil {
			return err
		}
		s.ops = append(s.ops, iterOp{name: name, e: e, run: func(ctx context.Context, tr *tracer, parent, op int64) (uint64, error) {
			var r core.Runner
			if err := tr.do("core.compile", parent, op, func() error {
				var err error
				r, err = mk(e)
				return err
			}); err != nil {
				return 0, err
			}
			defer r.(core.Releaser).Release()
			err := tr.do("core.run_functional", parent, op, func() error {
				if converge {
					j := r.(*core.Jacobi8Runner)
					res, err := j.RunToConvergence(ctx, core.StepOpts{MaxIters: 4000, CheckEvery: 200, Tol: 0})
					if err == nil && !res.Converged {
						err = fmt.Errorf("jacobi8 did not converge in %d steps", res.Iters)
					}
					return err
				}
				for i := 0; i < steps; i++ {
					if err := r.RunOnce(ctx); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
			var raw []byte
			err = tr.do("core.read", parent, op, func() error {
				type rawer interface{ State() ([]byte, error) }
				if st, ok := r.(rawer); ok {
					var err error
					raw, err = st.State()
					return err
				}
				m, err := r.Result()
				if err != nil {
					return err
				}
				raw = floatBytes(m.Data)
				return nil
			})
			return fnv(fnvBasis, raw), err
		}})
		return nil
	}
	if err := stepper("jacobi8", func(e *core.Engine) (core.Runner, error) {
		return core.NewJacobi8(e, plate(n, seed))
	}, 0, true); err != nil {
		return nil, err
	}
	if err := stepper("jacobi", func(e *core.Engine) (core.Runner, error) {
		return core.NewJacobi(e, plate(n, seed))
	}, jacobiSteps, false); err != nil {
		return nil, err
	}
	if err := stepper("particles", func(e *core.Engine) (core.Runner, error) {
		return core.NewParticles(e, seed)
	}, particleSteps, false); err != nil {
		return nil, err
	}
	if err := stepper("reaction-diffusion", func(e *core.Engine) (core.Runner, error) {
		return core.NewReactionDiffusion(e)
	}, rdSteps, false); err != nil {
		return nil, err
	}
	if err := s.addHistogram(tr, seed, workers); err != nil {
		return nil, err
	}
	ko := kernels.DefaultOptions
	pyr, err := pipeline.PyramidGraph(n, 3, ko)
	if err != nil {
		return nil, err
	}
	graphs := []struct {
		name string
		g    pipeline.Graph
	}{
		{"sepconv", pipeline.SepConvGraph(n, n, ko)},
		{"sobel", pipeline.SobelGraph(n, n, ko)},
		{"histeq", pipeline.HistEqGraph(n, n, 8, ko)},
		{"pyramid", pyr},
	}
	for gi, gr := range graphs {
		if err := s.addGraph(tr, gr.name, gr.g, seed+int64(gi), workers); err != nil {
			return nil, err
		}
	}
	for i, op := range s.ops {
		if _, err := op.run(ctx, tr, 0, int64(i+1)); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", op.name, err)
		}
	}
	return s, nil
}

// floatBytes is the little-endian IEEE 754 encoding of xs.
func floatBytes(xs []float64) []byte {
	out := make([]byte, 0, len(xs)*8)
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			out = append(out, byte(b>>(8*i)))
		}
	}
	return out
}

// addGraph compiles a vision graph on its own engine. One op runs the
// plan graphRuns times, each on the next of graphImages seeded source
// images, so consecutive runs never see the same input, and reads the
// outputs back after each run.
func (s *iterSet) addGraph(tr *tracer, name string, g pipeline.Graph, seed int64, workers int) error {
	e, err := iterEngine(tr, iterGrid, iterGrid, workers)
	if err != nil {
		return err
	}
	var plan *pipeline.Plan
	if err := tr.do("pipeline.compile", 0, 0, func() error {
		var err error
		plan, err = pipeline.Compile(e, g)
		return err
	}); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	s.plans = append(s.plans, plan)
	imgs := make([]*codec.Matrix, graphImages)
	for i := range imgs {
		imgs[i] = unitMatrix(iterGrid, seed*graphImages+int64(i))
	}
	src := e.NewTensor(iterGrid, iterGrid, codec.Unit)
	ext := map[string]*core.Tensor{pipeline.SrcInput: src}
	s.ops = append(s.ops, iterOp{name: name, e: e, run: func(ctx context.Context, tr *tracer, parent, op int64) (uint64, error) {
		sum := fnvBasis
		for i := 0; i < graphRuns; i++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if err := tr.do("core.upload", parent, op, func() error { return src.Upload(imgs[i%graphImages], true) }); err != nil {
				return 0, err
			}
			if err := tr.do("pipeline.run", parent, op, func() error {
				_, err := plan.Run(ext)
				return err
			}); err != nil {
				return 0, err
			}
			for _, out := range g.Outputs {
				var raw []byte
				if err := tr.do("core.read", parent, op, func() error {
					var err error
					raw, err = plan.Output(out).ReadRaw()
					return err
				}); err != nil {
					return 0, err
				}
				sum = fnv(sum, raw)
			}
		}
		return sum, nil
	}})
	return nil
}

// addHistogram adds the GL_POINTS scatter: one point per sample, placed by
// the vertex shader at its bin, accumulated by additive blending. One op
// draws histRounds seeded sample sets, each into a cleared target, and
// every readback must equal the CPU count.
func (s *iterSet) addHistogram(tr *tracer, seed int64, workers int) error {
	e, err := iterEngine(tr, histBins, 1, workers)
	if err != nil {
		return err
	}
	gl := e.GL()
	var prog uint32
	if err := tr.do("core.compile", 0, 0, func() error {
		var err error
		prog, err = buildGLProgram(gl, fmt.Sprintf(`
attribute float a_value;
void main() {
	float bin = floor(a_value * %d.0);
	gl_Position = vec4((bin + 0.5) / %d.0 * 2.0 - 1.0, 0.0, 0.0, 1.0);
	gl_PointSize = 1.0;
}`, histBins, histBins), `
precision mediump float;
void main() { gl_FragColor = vec4(1.0 / 255.0, 0.0, 0.0, 0.0); }`)
		return err
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	values := make([][]float32, histRounds)
	want := make([][]int, histRounds)
	for r := range values {
		values[r] = make([]float32, histSamples)
		want[r] = make([]int, histBins)
		for i := range values[r] {
			v := float32((rng.Float64() + rng.Float64() + rng.Float64()) / 3 * 0.999)
			values[r][i] = v
			want[r][int(float64(v)*histBins)]++
		}
		for b, c := range want[r] {
			if c > 255 {
				return fmt.Errorf("histogram: bin %d holds %d samples, beyond 8-bit range", b, c)
			}
		}
	}
	buf := make([]byte, histBins*4)
	s.ops = append(s.ops, iterOp{name: "histogram", e: e, run: func(ctx context.Context, tr *tracer, parent, op int64) (uint64, error) {
		sum := fnvBasis
		for r := range values {
			err := tr.do("core.run_functional", parent, op, func() error {
				gl.BindFramebuffer(gles.FRAMEBUFFER, 0)
				gl.Viewport(0, 0, histBins, 1)
				gl.ClearColor(0, 0, 0, 0)
				gl.Clear(gles.COLOR_BUFFER_BIT)
				gl.Enable(gles.BLEND)
				gl.BlendFunc(gles.ONE, gles.ONE)
				gl.UseProgram(prog)
				loc := gl.GetAttribLocation(prog, "a_value")
				gl.EnableVertexAttribArray(loc)
				gl.VertexAttribPointerClient(loc, 1, values[r], 0, 0)
				gl.DrawArrays(gles.POINTS, 0, histSamples)
				gl.DisableVertexAttribArray(loc)
				gl.Disable(gles.BLEND)
				if code := gl.GetError(); code != gles.NO_ERROR {
					return fmt.Errorf("histogram: GL error %s", gles.ErrName(code))
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
			if err := tr.do("core.read", parent, op, func() error {
				gl.ReadPixels(0, 0, histBins, 1, gles.RGBA, gles.UNSIGNED_BYTE, buf)
				return nil
			}); err != nil {
				return 0, err
			}
			for b, c := range want[r] {
				if int(buf[b*4]) != c {
					return 0, fmt.Errorf("histogram: bin %d counted %d, CPU %d", b, buf[b*4], c)
				}
			}
			sum = fnv(sum, buf)
		}
		return sum, nil
	}})
	return nil
}

// buildGLProgram compiles and links a vertex/fragment shader pair.
func buildGLProgram(gl *gles.Context, vsSrc, fsSrc string) (uint32, error) {
	compile := func(kind gles.Enum, src string) (uint32, error) {
		sh := gl.CreateShader(kind)
		gl.ShaderSource(sh, src)
		gl.CompileShader(sh)
		if gl.GetShaderiv(sh, gles.COMPILE_STATUS) != 1 {
			return 0, fmt.Errorf("shader: %s", gl.GetShaderInfoLog(sh))
		}
		return sh, nil
	}
	vs, err := compile(gles.VERTEX_SHADER, vsSrc)
	if err != nil {
		return 0, err
	}
	fs, err := compile(gles.FRAGMENT_SHADER, fsSrc)
	if err != nil {
		return 0, err
	}
	p := gl.CreateProgram()
	gl.AttachShader(p, vs)
	gl.AttachShader(p, fs)
	gl.LinkProgram(p)
	if gl.GetProgramiv(p, gles.LINK_STATUS) != 1 {
		return 0, fmt.Errorf("link: %s", gl.GetProgramInfoLog(p))
	}
	return p, nil
}

// runOp runs one op and measures its checksum and virtual time.
func (s *iterSet) runOp(ctx context.Context, tr *tracer, i int, op int64) (iterOutcome, error) {
	o := s.ops[i]
	v0 := o.e.Now()
	root := tr.begin("iter."+o.name, 0, op)
	sum, err := o.run(ctx, tr, root, op)
	o.e.Finish()
	tr.end(root)
	return iterOutcome{sum: sum, virtual: o.e.Now() - v0}, err
}

func runIterative(ctx context.Context, o runOpts) (*measurement, error) {
	m := &measurement{named: map[string]float64{}}
	var set *iterSet
	for i := 0; i < 3; i++ {
		start := time.Now()
		var tr *tracer
		if i == 2 {
			tr = o.tr // trace the set-up that is kept
		}
		s, err := newIterSet(ctx, tr, o.seed, 0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		set = s
	}

	passes := max(2, int(o.seconds/iterPassS+0.5))
	ph := m.phase("loops+graphs")
	got := make([][]iterOutcome, passes)
	perOp := make([][]float64, len(set.ops))
	for p := 0; p < passes; p++ {
		passStart := time.Now()
		for i := range set.ops {
			ph.Attempted++
			start := time.Now()
			out, err := set.runOp(ctx, o.tr, i, int64(p*len(set.ops)+i+1))
			d := time.Since(start)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", set.ops[i].name, err)
				ph.Failed++
				out = iterOutcome{}
			} else {
				m.opMS = append(m.opMS, ms(d))
				perOp[i] = append(perOp[i], ms(d))
			}
			got[p] = append(got[p], out)
		}
		m.unitS = append(m.unitS, time.Since(passStart).Seconds())
	}
	m.named["iterative_host_s"] = median(m.unitS)
	for i, op := range set.ops {
		m.named[op.name+"_ms"] = median(perOp[i])
	}

	// Output check, outside the timed window: every pass must reproduce,
	// byte for byte and in virtual time, a serial (Workers: 1) run of the
	// same seed, which makes the same warm-up and then one pass.
	ref, err := newIterSet(ctx, nil, o.seed, 1)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	for i := range ref.ops {
		want, err := ref.runOp(ctx, nil, i, 0)
		if err != nil {
			return nil, fmt.Errorf("serial reference %s: %w", ref.ops[i].name, err)
		}
		for p := range got {
			if g := got[p][i]; g != want && g != (iterOutcome{}) {
				fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: checksum %#x virtual %v, serial run %#x %v\n",
					ref.ops[i].name, p, g.sum, g.virtual, want.sum, want.virtual)
				ph.Failed++
			}
		}
	}
	m.checks = append(m.checks, "final-state checksums and virtual time equal a Workers: 1 run of the same seed")

	if o.tr != nil {
		m.layers = iterLayers(o.tr.closed(), set)
	}
	for _, p := range set.plans {
		p.Release()
	}
	for _, p := range ref.plans {
		p.Release()
	}
	return m, nil
}

// iterLayers derives the per-layer metrics of a traced iterative run.
func iterLayers(spans []span, s *iterSet) map[string]float64 {
	l := map[string]float64{}
	l["core.new_engine_ms"] = meanDur(spans, "core.new_engine")
	l["core.compile_ms"] = meanDur(spans, "core.compile")
	l["core.kernels_compiled"] = float64(countSpans(spans, "core.compile"))
	l["core.run_functional_ms"] = meanDur(spans, "core.run_functional")
	l["core.upload_ms"] = meanDur(spans, "core.upload")
	l["core.read_ms"] = meanDur(spans, "core.read")
	l["pipeline.compile_ms"] = meanDur(spans, "pipeline.compile")
	l["pipeline.run_ms"] = meanDur(spans, "pipeline.run")
	var frags, elided, shaded, fallbacks int64
	for _, op := range s.ops {
		frags += op.e.Machine().Stats.FragmentsShaded
		el, sh := op.e.CoherenceStats()
		elided, shaded = elided+el, shaded+sh
		fallbacks += op.e.LaneFallbackDraws()
	}
	var shadingMS float64
	for _, sp := range spans {
		if sp.Name == "core.run_functional" || sp.Name == "pipeline.run" {
			shadingMS += ms(sp.dur())
		}
	}
	l["gles.frags_shaded"] = float64(frags)
	if shadingMS > 0 {
		l["gles.mfrag_per_host_s"] = float64(frags) / (shadingMS / 1e3) / 1e6
	}
	l["gles.tiles_elided"], l["gles.tiles_shaded"] = float64(elided), float64(shaded)
	if elided+shaded > 0 {
		l["gles.elide_ratio"] = float64(elided) / float64(elided+shaded)
	}
	l["gles.lane_fallback_draws"] = float64(fallbacks)
	var fused, elidedRB int64
	for _, p := range s.plans {
		_, _, pf, re := p.Totals()
		fused, elidedRB = fused+pf, elidedRB+re
	}
	l["pipeline.passes_fused"] = float64(fused)
	l["pipeline.readbacks_elided"] = float64(elidedRB)
	return l
}
