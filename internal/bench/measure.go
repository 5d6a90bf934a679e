// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§V): the vsync ladder (Fig. 3), the
// VBO usage-hint text result, framebuffer-versus-texture rendering
// (Fig. 4a), sgemm blocking (Fig. 4b) and texture-memory reuse (Fig. 5).
//
// Methodology (mirroring §V-A): each benchmark body is executed repeatedly
// and the steady-state virtual time per iteration is reported. One
// iteration runs functionally at a small calibration size and is validated
// against the CPU references; the measured per-fragment costs (exact for
// these data-independent kernels) then drive a timing-only simulation at
// the paper's 1024×1024 size for the configured repetition count.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/gpu"
	"gles2gpgpu/internal/ref"
	"gles2gpgpu/internal/timing"
)

// Workload selects the benchmark.
type Workload int

// Workloads.
const (
	WSum Workload = iota
	// WSumDep is sum with an artificial dependency between consecutive
	// kernels (Fig. 4a's right-hand experiment).
	WSumDep
	// WSgemm is the multi-pass blocked matrix multiply; one iteration is
	// one full multiplication (M/block passes).
	WSgemm
)

func (w Workload) String() string {
	switch w {
	case WSumDep:
		return "sum+dep"
	case WSgemm:
		return "sgemm"
	}
	return "sum"
}

// Spec is a workload instance.
type Spec struct {
	Workload Workload
	Block    int // sgemm block size
}

// Opts controls the measurement methodology.
type Opts struct {
	// PaperSize is the matrix dimension of the timing runs (default 1024,
	// the paper's size).
	PaperSize int
	// CalibSize is the matrix dimension of the functional validation run
	// (default 64).
	CalibSize int
	// Warm and Iters are the warm-up and measured repetition counts of
	// the benchmark body (defaults 8 and 100).
	Warm, Iters int
	// Seed drives the random inputs.
	Seed int64
	// SkipValidation disables the CPU-reference check (used by ablations
	// that perturb the device model, not the numerics).
	SkipValidation bool
	// Workers overrides the host fragment-shading worker count for the
	// functional calibration run (0: engine default). It affects only how
	// long the calibration takes on the host, never the virtual-time
	// measurements.
	Workers int
	// NoPasses disables the host-side shader optimisation passes for the
	// functional calibration. Like Workers it changes host time only: the
	// passes are cycle-neutral, so virtual-time figures are identical.
	NoPasses bool
	// NoCoherence disables the cross-iteration tile-coherence cache for
	// the functional calibration. Host time only, like Workers: elided
	// tiles replay their exact prior bytes and modelled cost.
	NoCoherence bool
}

func (o Opts) withDefaults() Opts {
	if o.PaperSize == 0 {
		o.PaperSize = 1024
	}
	if o.CalibSize == 0 {
		o.CalibSize = 64
	}
	if o.Warm == 0 {
		o.Warm = 8
	}
	if o.Iters == 0 {
		o.Iters = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result is one measured configuration.
type Result struct {
	// PerIteration is the steady-state virtual time per benchmark body.
	PerIteration timing.Time
	// ValidationErr is the max abs error of the functional run against
	// the CPU reference.
	ValidationErr float64
	// Stats are the machine counters of the timing run.
	Stats gpu.Stats
	// HostTime is the host wall-clock time of the functional calibration
	// run — the part parallel shading accelerates. Purely informational;
	// it never feeds the virtual-time model.
	HostTime time.Duration
}

// randMatrix produces a unit-range matrix of values in [0, 0.999].
func randMatrix(n int, seed int64) *codec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := codec.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 0.999
	}
	return m
}

type builtRunner struct {
	runner  core.Runner
	kernel  *core.Kernel
	engine  *core.Engine
	wantRef func() []float64
	n       int
}

// build instantiates the workload on an engine with the given grid size.
func build(cfg core.Config, spec Spec, n int, seed int64, timingOnly bool) (*builtRunner, error) {
	cfg.Width, cfg.Height = n, n
	if spec.Workload == WSumDep {
		cfg.ArtificialDependency = true
	}
	e, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if timingOnly {
		e.SetTimingOnly(true)
	}
	a := codec.NewMatrix(n, n)
	b := codec.NewMatrix(n, n)
	if !timingOnly {
		a = randMatrix(n, seed)
		b = randMatrix(n, seed+1)
	}
	br := &builtRunner{engine: e, n: n}
	switch spec.Workload {
	case WSum, WSumDep:
		r, err := core.NewSum(e, a, b)
		if err != nil {
			return nil, err
		}
		br.runner, br.kernel = r, r.Kernel()
		br.wantRef = func() []float64 {
			want := make([]float64, n*n)
			ref.Sum(a.Data, b.Data, want)
			return want
		}
	case WSgemm:
		block := spec.Block
		if block <= 0 {
			block = 16
		}
		r, err := core.NewSgemm(e, a, b, block)
		if err != nil {
			return nil, err
		}
		br.runner, br.kernel = r, r.Kernel()
		br.wantRef = func() []float64 {
			want := make([]float64, n*n)
			ref.Sgemm(n, a.Data, b.Data, want)
			return want
		}
	default:
		return nil, fmt.Errorf("bench: unknown workload %d", spec.Workload)
	}
	return br, nil
}

// Measure runs one configuration per the package methodology. ctx cancels
// the measurement between iterations (and between the passes of multi-pass
// workloads, via Runner.RunOnce).
func Measure(ctx context.Context, cfg core.Config, spec Spec, o Opts) (Result, error) {
	o = o.withDefaults()
	var res Result

	// Functional calibration + validation.
	if o.Workers != 0 {
		cfg.Workers = o.Workers
	}
	if o.NoPasses {
		cfg.NoPasses = true
	}
	if o.NoCoherence {
		cfg.NoCoherence = true
	}
	hostStart := time.Now()
	cal, err := build(cfg, spec, o.CalibSize, o.Seed, false)
	if err != nil {
		return res, fmt.Errorf("bench: calibration: %w", err)
	}
	if err := cal.runner.RunOnce(ctx); err != nil {
		return res, fmt.Errorf("bench: calibration run: %w", err)
	}
	res.HostTime = time.Since(hostStart)
	if !o.SkipValidation {
		got, err := cal.runner.Result()
		if err != nil {
			return res, err
		}
		res.ValidationErr = ref.MaxAbsDiff(cal.wantRef(), got.Data)
		tol := validationTolerance(spec, o.CalibSize)
		if res.ValidationErr > tol {
			return res, fmt.Errorf("bench: validation failed: max error %g > %g", res.ValidationErr, tol)
		}
	}
	frags, cycles, tex, ok := cal.engine.GL().DrawStatsFor(cal.kernel.Program(), o.CalibSize, o.CalibSize)
	if !ok || frags == 0 {
		return res, fmt.Errorf("bench: no draw stats measured")
	}

	// Paper-size timing simulation.
	paper, err := build(cfg, spec, o.PaperSize, o.Seed, true)
	if err != nil {
		return res, fmt.Errorf("bench: timing build: %w", err)
	}
	n2 := int64(o.PaperSize) * int64(o.PaperSize)
	paper.engine.GL().PrimeStats(paper.kernel.Program(), o.PaperSize, o.PaperSize,
		n2, cycles*n2/frags, tex*n2/frags)
	for i := 0; i < o.Warm; i++ {
		if err := paper.runner.RunOnce(ctx); err != nil {
			return res, err
		}
	}
	t0 := paper.engine.Now()
	for i := 0; i < o.Iters; i++ {
		if err := paper.runner.RunOnce(ctx); err != nil {
			return res, err
		}
	}
	paper.engine.Finish()
	res.PerIteration = (paper.engine.Now() - t0) / timing.Time(o.Iters)
	res.Stats = paper.engine.Machine().Stats
	return res, nil
}

// validationTolerance bounds the acceptable GPU-vs-CPU error: the [13]
// encoding quantum scaled by the output range plus float32 arithmetic
// noise accumulated over the pass count.
func validationTolerance(spec Spec, n int) float64 {
	if spec.Workload == WSgemm {
		// Output range [0,n), up to n/block passes of accumulated
		// truncation; 1e-2 absolute is comfortably above the worst case
		// at calibration sizes and far below any real defect.
		return 1e-2
	}
	return 1e-4
}
