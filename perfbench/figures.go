package main

// paper-figures: the default glesbench figure set (3, vbo, 4a, 4b, 5a, 5b,
// journey, ablation), regenerated in-process by one caller. Its host time
// goes to shader compiles, functional calibration at 64² and timing-only
// replay at 1024²; it never touches serve, shard or the coherence cache.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"gles2gpgpu/internal/bench"
	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/ref"
	"gles2gpgpu/internal/timing"
)

// goldenSeed is the seed glesbench_output.txt was recorded at (bench.Opts'
// default).
const goldenSeed = 1

// figure is one figure group of the default set and how glesbench prints it.
type figure struct {
	name string
	run  func(ctx context.Context, devs []*device.Profile, o bench.Opts, out *bytes.Buffer) (*bench.Fig3Result, error)
}

func tableFig(f func(ctx context.Context, devs []*device.Profile, o bench.Opts) (interface{ Table() *bench.Table }, error)) func(context.Context, []*device.Profile, bench.Opts, *bytes.Buffer) (*bench.Fig3Result, error) {
	return func(ctx context.Context, devs []*device.Profile, o bench.Opts, out *bytes.Buffer) (*bench.Fig3Result, error) {
		r, err := f(ctx, devs, o)
		if err != nil {
			return nil, err
		}
		return nil, r.Table().Write(out)
	}
}

// figures mirrors cmd/glesbench's default output, figure by figure.
var figures = []figure{
	{"3", func(ctx context.Context, devs []*device.Profile, o bench.Opts, out *bytes.Buffer) (*bench.Fig3Result, error) {
		r, err := bench.Fig3(ctx, devs, o)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "Headline: best sum speedup over the ES2-best-practices baseline: %.1fx (paper: >16x)\n\n", r.Headline)
		return r, r.Table().Write(out)
	}},
	{"vbo", tableFig(func(ctx context.Context, devs []*device.Profile, o bench.Opts) (interface{ Table() *bench.Table }, error) {
		return bench.FigVBO(ctx, devs, o)
	})},
	{"4a", tableFig(func(ctx context.Context, devs []*device.Profile, o bench.Opts) (interface{ Table() *bench.Table }, error) {
		return bench.Fig4a(ctx, devs, o)
	})},
	{"4b", tableFig(func(ctx context.Context, devs []*device.Profile, o bench.Opts) (interface{ Table() *bench.Table }, error) {
		return bench.Fig4b(ctx, devs, o)
	})},
	{"5a", tableFig(func(ctx context.Context, devs []*device.Profile, o bench.Opts) (interface{ Table() *bench.Table }, error) {
		return bench.Fig5(ctx, devs, core.TargetTexture, o)
	})},
	{"5b", tableFig(func(ctx context.Context, devs []*device.Profile, o bench.Opts) (interface{ Table() *bench.Table }, error) {
		return bench.Fig5(ctx, devs, core.TargetFramebuffer, o)
	})},
	{"journey", func(ctx context.Context, devs []*device.Profile, o bench.Opts, out *bytes.Buffer) (*bench.Fig3Result, error) {
		for _, dev := range devs {
			for _, spec := range []bench.Spec{{Workload: bench.WSum}, {Workload: bench.WSgemm, Block: 16}} {
				r, err := bench.Incremental(ctx, dev, spec, o)
				if err != nil {
					return nil, err
				}
				if err := r.Table().Write(out); err != nil {
					return nil, err
				}
			}
		}
		return nil, nil
	}},
	{"ablation", func(ctx context.Context, devs []*device.Profile, o bench.Opts, out *bytes.Buffer) (*bench.Fig3Result, error) {
		for _, dev := range devs {
			r, err := bench.Ablation(ctx, dev, o)
			if err != nil {
				return nil, err
			}
			if err := r.Table().Write(out); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}},
}

func runFigures(ctx context.Context, o runOpts) (*measurement, error) {
	m := &measurement{named: map[string]float64{}}
	var golden []byte
	if o.seed == goldenSeed {
		var err error
		if golden, err = os.ReadFile(goldenPath); err != nil {
			return nil, err
		}
		m.checks = append(m.checks, "tables byte-identical to "+goldenPath)
	} else {
		m.checks = append(m.checks, "CPU-reference validation inside every calibration; tables identical across sets")
	}
	opts := bench.Opts{Seed: o.seed}
	devs := bench.Devices()

	// Set-up: the engines and kernel compiles every configuration starts
	// from, plus one functional calibration of each kernel, repeated and
	// reported as the median.
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := figureWarmup(ctx, devs, o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}

	// Sets start until the run length has passed: three or four at 20 s.
	stop := deadline(o.seconds)
	figs := m.phase("figures")
	var first []byte
	var fig3 *bench.Fig3Result
	for s := 0; s == 0 || time.Now().Before(stop); s++ {
		var out bytes.Buffer
		setStart := time.Now()
		failed := false
		for i, f := range figures {
			figs.Attempted++
			op := int64(s*len(figures) + i + 1)
			id := o.tr.begin("bench.figure."+f.name, 0, op)
			start := time.Now()
			r, err := f.run(ctx, devs, opts, &out)
			d := time.Since(start)
			o.tr.end(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: figure %s: %v\n", f.name, err)
				figs.Failed++
				failed = true
				continue
			}
			if r != nil {
				fig3 = r
			}
			m.opMS = append(m.opMS, ms(d))
		}
		m.unitS = append(m.unitS, time.Since(setStart).Seconds())
		if failed {
			continue
		}
		// Output checks, outside the timed window: the golden bytes at the
		// golden seed, and determinism across sets at every seed.
		switch {
		case golden != nil && !bytes.Equal(out.Bytes(), golden):
			fmt.Fprintf(os.Stderr, "perfbench: figure set %d differs from %s\n", s, goldenPath)
			figs.Failed++
		case first != nil && !bytes.Equal(out.Bytes(), first):
			fmt.Fprintf(os.Stderr, "perfbench: figure set %d differs from set 0\n", s)
			figs.Failed++
		}
		if first == nil {
			first = out.Bytes()
		}
	}
	m.named["figures_host_s"] = median(m.unitS)

	if o.tr != nil {
		m.layers = map[string]float64{}
		if err := figureProbe(ctx, devs, o, fig3, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// figureWarmup builds a calibration engine per device and compiles and runs
// the sum and sgemm kernels in both kernel-code variants once.
func figureWarmup(ctx context.Context, devs []*device.Profile, seed int64) error {
	for _, dev := range devs {
		for _, ko := range []kernels.Options{kernels.DefaultOptions, kernels.FP24Options} {
			cfg := bestPractices(dev)
			cfg.Kernel = ko
			cal, err := buildProbe(nil, 0, 0, cfg, bench.Spec{Workload: bench.WSum}, 64, seed, false)
			if err != nil {
				return err
			}
			if err := cal.runner.RunOnce(ctx); err != nil {
				return err
			}
			cal, err = buildProbe(nil, 0, 0, cfg, bench.Spec{Workload: bench.WSgemm, Block: 16}, 64, seed, false)
			if err != nil {
				return err
			}
			if err := cal.runner.RunOnce(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// bestPractices is Fig. 3's baseline configuration (ES2 best-practices
// GPGPU), as internal/bench defines it.
func bestPractices(dev *device.Profile) core.Config {
	return core.Config{
		Device:   dev,
		Swap:     core.SwapVsync,
		Target:   core.TargetTexture,
		UseVBO:   true,
		VBOUsage: gles.STATIC_DRAW,
	}
}

// fig3Steps are Fig. 3's optimisation ladder.
var fig3Steps = []func(*core.Config){
	func(c *core.Config) {},
	func(c *core.Config) { c.Swap = core.SwapNoVsync },
	func(c *core.Config) { c.Swap = core.SwapNone },
	func(c *core.Config) {
		c.Swap = core.SwapNone
		c.Kernel = kernels.FP24Options
	},
}

// probeRunner is one built workload of the probe.
type probeRunner struct {
	e      *core.Engine
	runner core.Runner
	kernel *core.Kernel
	a, b   *codec.Matrix
}

// unitMatrix is the benchmark harness's input matrix: uniform in [0, 0.999).
func unitMatrix(n int, seed int64) *codec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := codec.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 0.999
	}
	return m
}

// probeTotals accumulates the probe's counters over its configurations.
type probeTotals struct {
	frags, elided, shaded, fallbacks int64
	functional, replayHost           time.Duration
	replayVirtual                    timing.Time
}

// figureProbe re-runs Fig. 3's configurations through core's public calls,
// one span per layer boundary. Each configuration's virtual time per
// iteration must equal the figure's own, which checks that the probe
// measures the same work.
func figureProbe(ctx context.Context, devs []*device.Profile, o runOpts, fig3 *bench.Fig3Result, m *measurement) error {
	tr := o.tr
	probe := m.phase("probe")
	var t probeTotals
	op := int64(1 << 20) // apart from the figure spans' operation IDs
	for _, dev := range devs {
		for _, spec := range []bench.Spec{{Workload: bench.WSum}, {Workload: bench.WSgemm, Block: 16}} {
			series := shortName(dev) + " " + spec.Workload.String()
			for step, mut := range fig3Steps {
				op++
				probe.Attempted++
				cfg := bestPractices(dev)
				mut(&cfg)
				root := tr.begin("probe.measure", 0, op)
				perIter, err := probeMeasure(ctx, tr, root, op, cfg, spec, o.seed, &t)
				tr.end(root)
				if err == nil && fig3 != nil && fig3.Times[series][step] != perIter {
					err = fmt.Errorf("%v per iteration, figure 3 measured %v", perIter, fig3.Times[series][step])
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: probe %s step %d: %v\n", series, step, err)
					probe.Failed++
				}
			}
		}
	}
	m.checks = append(m.checks, "traced probe: per-iteration virtual time equals Figure 3's for every configuration")
	spans := tr.closed()
	l := m.layers
	l["core.new_engine_ms"] = meanDur(spans, "core.new_engine")
	l["core.compile_ms"] = meanDur(spans, "core.compile")
	l["core.kernels_compiled"] = float64(countSpans(spans, "core.compile"))
	l["core.run_functional_ms"] = meanDur(spans, "core.run_functional")
	l["core.read_ms"] = meanDur(spans, "core.read")
	l["gles.frags_shaded"] = float64(t.frags)
	if t.functional > 0 {
		l["gles.mfrag_per_host_s"] = float64(t.frags) / t.functional.Seconds() / 1e6
	}
	l["gpu.replay_ms"] = meanDur(spans, "gpu.replay")
	if us := t.replayVirtual.Microseconds(); us > 0 {
		l["gpu.host_ns_per_virtual_us"] = float64(t.replayHost.Nanoseconds()) / us
	}
	l["gles.tiles_elided"], l["gles.tiles_shaded"] = float64(t.elided), float64(t.shaded)
	if t.shaded+t.elided > 0 {
		l["gles.elide_ratio"] = float64(t.elided) / float64(t.elided+t.shaded)
	}
	l["gles.lane_fallback_draws"] = float64(t.fallbacks)
	return nil
}

// probeMeasure measures one configuration by the harness's method: a
// functional calibration at 64², validated against the CPU reference,
// whose per-fragment costs prime a timing-only replay at 1024² of 8
// warm-up and 100 measured iterations. It returns the virtual time per
// iteration.
func probeMeasure(ctx context.Context, tr *tracer, root, op int64, cfg core.Config, spec bench.Spec, seed int64, t *probeTotals) (timing.Time, error) {
	const calib, paper, warm, iters = 64, 1024, 8, 100
	cal, err := buildProbe(tr, root, op, cfg, spec, calib, seed, false)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := tr.do("core.run_functional", root, op, func() error { return cal.runner.RunOnce(ctx) }); err != nil {
		return 0, err
	}
	t.functional += time.Since(start)
	var got *codec.Matrix
	if err := tr.do("core.read", root, op, func() error {
		var err error
		got, err = cal.runner.Result()
		return err
	}); err != nil {
		return 0, err
	}
	want := make([]float64, calib*calib)
	tol := 1e-4 // the harness's tolerances
	if spec.Workload == bench.WSgemm {
		ref.Sgemm(calib, cal.a.Data, cal.b.Data, want)
		tol = 1e-2
	} else {
		ref.Sum(cal.a.Data, cal.b.Data, want)
	}
	if d := ref.MaxAbsDiff(want, got.Data); d > tol {
		return 0, fmt.Errorf("validation error %g > %g", d, tol)
	}
	t.frags += cal.e.Machine().Stats.FragmentsShaded
	el, sh := cal.e.CoherenceStats()
	t.elided, t.shaded, t.fallbacks = t.elided+el, t.shaded+sh, t.fallbacks+cal.e.LaneFallbackDraws()
	f, cyc, tex, ok := cal.e.GL().DrawStatsFor(cal.kernel.Program(), calib, calib)
	if !ok || f == 0 {
		return 0, fmt.Errorf("no draw stats measured")
	}

	timed, err := buildProbe(tr, root, op, cfg, spec, paper, seed, true)
	if err != nil {
		return 0, err
	}
	n2 := int64(paper) * paper
	timed.e.GL().PrimeStats(timed.kernel.Program(), paper, paper, n2, cyc*n2/f, tex*n2/f)
	start = time.Now()
	v0 := timed.e.Now()
	var t0 timing.Time
	err = tr.do("gpu.replay", root, op, func() error {
		for i := 0; i < warm+iters; i++ {
			if i == warm {
				t0 = timed.e.Now()
			}
			if err := timed.runner.RunOnce(ctx); err != nil {
				return err
			}
		}
		timed.e.Finish()
		return nil
	})
	t.replayHost += time.Since(start)
	t.replayVirtual += timed.e.Now() - v0
	return (timed.e.Now() - t0) / iters, err
}

// shortName is the figures' series label of a device.
func shortName(dev *device.Profile) string {
	if dev.Name == device.VideoCoreIV().Name {
		return "VCore"
	}
	return "SGX"
}

// buildProbe builds an engine and runner the way the figure harness does:
// seeded inputs for a functional run, zero inputs for a timing-only one.
// The engine construction and the runner constructor (kernel compile plus
// input upload) each get a span under parent.
func buildProbe(tr *tracer, parent, op int64, cfg core.Config, spec bench.Spec, n int, seed int64, timingOnly bool) (*probeRunner, error) {
	cfg.Width, cfg.Height = n, n
	var e *core.Engine
	if err := tr.do("core.new_engine", parent, op, func() error {
		var err error
		e, err = core.NewEngine(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if timingOnly {
		e.SetTimingOnly(true)
	}
	p := &probeRunner{e: e, a: codec.NewMatrix(n, n), b: codec.NewMatrix(n, n)}
	if !timingOnly {
		p.a, p.b = unitMatrix(n, seed), unitMatrix(n, seed+1)
	}
	err := tr.do("core.compile", parent, op, func() error {
		if spec.Workload == bench.WSgemm {
			r, err := core.NewSgemm(e, p.a, p.b, spec.Block)
			if err != nil {
				return err
			}
			p.runner, p.kernel = r, r.Kernel()
			return nil
		}
		r, err := core.NewSum(e, p.a, p.b)
		if err != nil {
			return err
		}
		p.runner, p.kernel = r, r.Kernel()
		return nil
	})
	return p, err
}
