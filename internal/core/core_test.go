package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/ref"
)

// randMatrix returns an n×n matrix with unit-range values in [0,1).
func randMatrix(n int, seed int64) *codec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := codec.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 0.999
	}
	return m
}

func baseConfig(n int) Config {
	return Config{
		Device: device.Generic(),
		Width:  n, Height: n,
		Swap:   SwapNone,
		Target: TargetTexture,
		UseVBO: true,
	}
}

func checkSum(t *testing.T, cfg Config, iters int, tol float64) {
	t.Helper()
	n := cfg.Width
	a := randMatrix(n, 1)
	b := randMatrix(n, 2)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSum(e, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		if err := r.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n*n)
	ref.Sum(a.Data, b.Data, want)
	if d := ref.MaxAbsDiff(want, got.Data); d > tol {
		t.Errorf("sum max error %g > %g", d, tol)
	}
}

func TestSumAllConfigurations(t *testing.T) {
	const n = 16
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"texture-noswap", func(c *Config) {}},
		{"texture-vsync", func(c *Config) { c.Swap = SwapVsync }},
		{"texture-interval0", func(c *Config) { c.Swap = SwapNoVsync }},
		{"framebuffer", func(c *Config) { c.Target = TargetFramebuffer }},
		{"framebuffer-swap", func(c *Config) { c.Target = TargetFramebuffer; c.Swap = SwapNoVsync }},
		{"framebuffer-reuseout", func(c *Config) { c.Target = TargetFramebuffer; c.ReuseOutputTextures = true }},
		{"stream-inputs", func(c *Config) { c.StreamInputs = true }},
		{"stream-reuse", func(c *Config) { c.StreamInputs = true; c.ReuseInputTextures = true }},
		{"client-arrays", func(c *Config) { c.UseVBO = false }},
		{"fp24", func(c *Config) { c.Kernel = kernels.FP24Options }},
		{"dependency", func(c *Config) { c.ArtificialDependency = true }},
		{"dependency-fb", func(c *Config) { c.ArtificialDependency = true; c.Target = TargetFramebuffer; c.Swap = SwapNoVsync }},
		{"no-invalidate", func(c *Config) { c.InvalidateTarget = boolPtr(false) }},
		{"discard-ext", func(c *Config) { c.UseDiscardExtension = true }},
		{"discard-ext-fb", func(c *Config) { c.UseDiscardExtension = true; c.Target = TargetFramebuffer }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(n)
			tc.mut(&cfg)
			tol := 1e-5
			if cfg.Kernel.Depth == codec.Depth24 {
				tol = 1e-5
			}
			checkSum(t, cfg, 3, tol)
		})
	}
}

func checkSgemm(t *testing.T, cfg Config, block int, tol float64) {
	t.Helper()
	n := cfg.Width
	a := randMatrix(n, 3)
	b := randMatrix(n, 4)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSgemm(e, a, b, block)
	if err != nil {
		t.Fatal(err)
	}
	if r.Passes() != n/block {
		t.Fatalf("passes = %d, want %d", r.Passes(), n/block)
	}
	if err := r.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n*n)
	ref.Sgemm(n, a.Data, b.Data, want)
	if d := ref.MaxAbsDiff(want, got.Data); d > tol {
		t.Errorf("sgemm(block=%d) max error %g > %g", block, d, tol)
	}
}

func TestSgemmBlockSizesTextureTarget(t *testing.T) {
	for _, block := range []int{1, 2, 4, 8, 16} {
		cfg := baseConfig(16)
		checkSgemm(t, cfg, block, 5e-3)
	}
}

func TestSgemmFramebufferTarget(t *testing.T) {
	cfg := baseConfig(16)
	cfg.Target = TargetFramebuffer
	cfg.Swap = SwapNoVsync
	checkSgemm(t, cfg, 4, 5e-3)
	cfg.ReuseOutputTextures = true
	checkSgemm(t, cfg, 4, 5e-3)
}

func TestSgemmFP24Mul24(t *testing.T) {
	cfg := baseConfig(16)
	cfg.Kernel = kernels.FP24Options
	checkSgemm(t, cfg, 8, 5e-3)
}

func TestSgemmRepeatedRunsStayCorrect(t *testing.T) {
	// A second RunOnce must not be polluted by the first's intermediates.
	n := 8
	cfg := baseConfig(n)
	a := randMatrix(n, 5)
	b := randMatrix(n, 6)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSgemm(e, a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n*n)
	ref.Sgemm(n, a.Data, b.Data, want)
	if d := ref.MaxAbsDiff(want, got.Data); d > 5e-3 {
		t.Errorf("repeated sgemm error %g", d)
	}
}

func TestSgemmBlockTooLargeFailsCompilation(t *testing.T) {
	// On the VideoCore profile (max 40 texture accesses) a block-32
	// kernel needs 65 fetches: compilation must fail, as the paper
	// reports for block sizes above 16.
	cfg := baseConfig(64)
	cfg.Device = device.VideoCoreIV()
	a := randMatrix(64, 7)
	b := randMatrix(64, 8)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSgemm(e, a, b, 32); err == nil {
		t.Fatal("block-32 sgemm compiled despite implementation limits")
	} else if !strings.Contains(err.Error(), "limit") {
		t.Errorf("unexpected error: %v", err)
	}
	// Block 16 (33 fetches) fits.
	if _, err := NewSgemm(e, a, b, 16); err != nil {
		t.Errorf("block-16 sgemm rejected: %v", err)
	}
}

func TestSaxpy(t *testing.T) {
	n := 16
	cfg := baseConfig(n)
	x := randMatrix(n, 9)
	y := randMatrix(n, 10)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSaxpy(e, 0.5, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), y.Data...)
	ref.Saxpy(0.5, x.Data, want)
	if d := ref.MaxAbsDiff(want, got.Data); d > 1e-5 {
		t.Errorf("saxpy error %g", d)
	}
	if _, err := NewSaxpy(e, 1.5, x, y); err == nil {
		t.Error("alpha outside encoded domain accepted")
	}
}

func TestJacobiMatchesReference(t *testing.T) {
	n := 16
	cfg := baseConfig(n)
	grid := codec.NewMatrix(n, n)
	for y := 0; y < n; y++ {
		grid.Set(y, 0, 0.9) // hot left edge
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewJacobi(e, grid)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 10
	for i := 0; i < steps; i++ {
		if err := r.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), grid.Data...)
	tmp := make([]float64, n*n)
	for i := 0; i < steps; i++ {
		ref.JacobiStep(n, n, want, tmp)
		want, tmp = tmp, want
	}
	if d := ref.MaxAbsDiff(want, got.Data); d > 1e-3 {
		t.Errorf("jacobi error after %d steps: %g", steps, d)
	}
}

// TestJacobiRunsOnLanes pins that the branchy jacobi kernels — the reason
// the lane compiler has a masked form — shade lane-batched on the default
// configuration: no jacobi or jacobi8 draw falls back to per-fragment
// shading.
func TestJacobiRunsOnLanes(t *testing.T) {
	const n = 32
	for _, tc := range []struct {
		name string
		new  func(e *Engine) (Runner, error)
	}{
		{"jacobi", func(e *Engine) (Runner, error) { return NewJacobi(e, randMatrix(n, 47)) }},
		{"jacobi8", func(e *Engine) (Runner, error) { return NewJacobi8(e, randMatrix(n, 47)) }},
	} {
		e, err := NewEngine(baseConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		r, err := tc.new(e)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 0; i < 4; i++ {
			if err := r.RunOnce(context.Background()); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if f := e.LaneFallbackDraws(); f != 0 {
			t.Errorf("%s: %d draws fell back to per-fragment shading", tc.name, f)
		}
	}
}

func TestConv3x3MatchesReference(t *testing.T) {
	n := 16
	cfg := baseConfig(n)
	img := randMatrix(n, 11)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	box := [9]float32{}
	for i := range box {
		box[i] = 1.0 / 9
	}
	r, err := NewConv3x3(e, img, box)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	var k [9]float64
	for i := range k {
		k[i] = 1.0 / 9
	}
	want := make([]float64, n*n)
	ref.Convolve3x3(n, n, img.Data, k, want)
	if d := ref.MaxAbsDiff(want, got.Data); d > 1e-4 {
		t.Errorf("conv error %g", d)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("missing device accepted")
	}
	if _, err := NewEngine(Config{Device: device.Generic()}); err == nil {
		t.Error("zero grid accepted")
	}
	cfg := baseConfig(8)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := randMatrix(8, 1)
	bWrong := randMatrix(16, 2)
	if _, err := NewSum(e, a, bWrong); err == nil {
		t.Error("shape mismatch accepted")
	}
	b := randMatrix(8, 2)
	b.Range = codec.Range{Lo: 0, Hi: 2}
	if _, err := NewSum(e, a, b); err == nil {
		t.Error("range mismatch accepted")
	}
	if _, err := NewSgemm(e, a, randMatrix(8, 3), 3); err == nil {
		t.Error("non-power-of-two block accepted")
	}
}

func TestTimingAdvancesAndVsyncGates(t *testing.T) {
	n := 16
	run := func(mut func(*Config)) float64 {
		cfg := baseConfig(n)
		cfg.Device = device.VideoCoreIV()
		mut(&cfg)
		a := randMatrix(n, 1)
		b := randMatrix(n, 2)
		e, _ := NewEngine(cfg)
		r, err := NewSum(e, a, b)
		if err != nil {
			t.Fatal(err)
		}
		start := e.Now()
		for i := 0; i < 5; i++ {
			if err := r.RunOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		e.Finish()
		return (e.Now() - start).Seconds() / 5
	}
	vsync := run(func(c *Config) { c.Swap = SwapVsync })
	nosync := run(func(c *Config) { c.Swap = SwapNoVsync })
	noswap := run(func(c *Config) { c.Swap = SwapNone })
	if !(vsync > nosync && nosync > noswap) {
		t.Errorf("expected vsync(%g) > interval0(%g) > noswap(%g)", vsync, nosync, noswap)
	}
	// Vsync-gated iterations average at least ~a refresh period (the
	// first iteration starts mid-period, hence the 10% slack).
	if vsync < 0.9/60 {
		t.Errorf("vsync iteration %g s, want >= refresh period", vsync)
	}
}

func TestTranspose(t *testing.T) {
	n := 16
	cfg := baseConfig(n)
	m := randMatrix(n, 21)
	e, _ := NewEngine(cfg)
	r, err := NewTranspose(e, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d := mathAbs(got.At(i, j) - m.At(j, i)); d > 1e-6 {
				t.Fatalf("T[%d][%d] = %g, want %g", i, j, got.At(i, j), m.At(j, i))
			}
		}
	}
	if _, err := NewTranspose(e, randMatrix(8, 1)); err == nil {
		t.Error("size mismatch accepted")
	}
}

// Property: sum stays correct under random configuration knobs.
func TestSumConfigFuzzProperty(t *testing.T) {
	n := 8
	a := randMatrix(n, 31)
	b := randMatrix(n, 32)
	want := make([]float64, n*n)
	ref.Sum(a.Data, b.Data, want)
	f := func(bits uint16) bool {
		cfg := baseConfig(n)
		if bits&1 != 0 {
			cfg.Target = TargetFramebuffer
		}
		switch (bits >> 1) & 3 {
		case 1:
			cfg.Swap = SwapVsync
		case 2:
			cfg.Swap = SwapNoVsync
		}
		cfg.StreamInputs = bits&8 != 0
		cfg.ReuseInputTextures = bits&16 != 0
		cfg.ReuseOutputTextures = bits&32 != 0
		cfg.UseVBO = bits&64 != 0
		if bits&128 != 0 {
			cfg.Kernel = kernels.FP24Options
		}
		cfg.ArtificialDependency = bits&256 != 0
		cfg.UseDiscardExtension = bits&512 != 0
		if bits&1024 != 0 {
			cfg.Device = device.VideoCoreIV()
		}
		// Host-parallel shading must be invisible to results at any
		// worker count (1, 2, 3 or 4 here).
		cfg.Workers = 1 + int((bits>>11)&3)
		e, err := NewEngine(cfg)
		if err != nil {
			return false
		}
		r, err := NewSum(e, a, b)
		if err != nil {
			return false
		}
		for i := 0; i < 2; i++ {
			if err := r.RunOnce(context.Background()); err != nil {
				return false
			}
		}
		got, err := r.Result()
		if err != nil {
			return false
		}
		return ref.MaxAbsDiff(want, got.Data) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSumParallelParityFuzzProperty fuzzes config options at a grid size
// that engages the parallel shading gate and demands the decoded result be
// exactly equal between serial and four-worker execution — the byte-level
// determinism property, sampled across the option space.
func TestSumParallelParityFuzzProperty(t *testing.T) {
	n := 64
	a := randMatrix(n, 33)
	b := randMatrix(n, 34)
	f := func(bits uint16) bool {
		mk := func(workers int) ([]float64, int64, error) {
			cfg := baseConfig(n)
			if bits&1 != 0 {
				cfg.Target = TargetFramebuffer
			}
			cfg.StreamInputs = bits&2 != 0
			cfg.ReuseInputTextures = bits&4 != 0
			cfg.ReuseOutputTextures = bits&8 != 0
			if bits&16 != 0 {
				cfg.Kernel = kernels.FP24Options
			}
			cfg.ArtificialDependency = bits&32 != 0
			if bits&64 != 0 {
				cfg.Device = device.VideoCoreIV()
			}
			cfg.Workers = workers
			e, err := NewEngine(cfg)
			if err != nil {
				return nil, 0, err
			}
			r, err := NewSum(e, a, b)
			if err != nil {
				return nil, 0, err
			}
			for i := 0; i < 2; i++ {
				if err := r.RunOnce(context.Background()); err != nil {
					return nil, 0, err
				}
			}
			got, err := r.Result()
			if err != nil {
				return nil, 0, err
			}
			e.Finish()
			return got.Data, int64(e.Now()), nil
		}
		serial, serialNow, err := mk(1)
		if err != nil {
			return false
		}
		parallel, parallelNow, err := mk(4)
		if err != nil {
			return false
		}
		if serialNow != parallelNow {
			return false
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestReducePyramid(t *testing.T) {
	n := 32
	for _, targetFB := range []bool{false, true} {
		cfg := baseConfig(n)
		if targetFB {
			cfg.Target = TargetFramebuffer
		}
		m := randMatrix(n, 12)
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReduce(e, m)
		if err != nil {
			t.Fatal(err)
		}
		if r.Levels() != 5 { // 32 -> 16 -> 8 -> 4 -> 2 -> 1
			t.Fatalf("levels = %d, want 5", r.Levels())
		}
		if err := r.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		got, err := r.Total()
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, v := range m.Data {
			want += v
		}
		if d := mathAbs(got-want) / want; d > 1e-4 {
			t.Errorf("target fb=%v: total = %g, want %g (rel err %g)", targetFB, got, want, d)
		}
	}
	// Validation of constructor constraints.
	e, _ := NewEngine(baseConfig(n))
	if _, err := NewReduce(e, randMatrix(16, 13)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestEngineReport(t *testing.T) {
	n := 16
	cfg := baseConfig(n)
	cfg.Target = TargetFramebuffer
	a := randMatrix(n, 1)
	b := randMatrix(n, 2)
	e, _ := NewEngine(cfg)
	r, err := NewSum(e, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := r.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	e.Finish()
	rep := e.Report()
	if rep.Elapsed <= 0 || rep.FPBusy <= 0 {
		t.Errorf("report times: %+v", rep)
	}
	if rep.FPUtilisation <= 0 || rep.FPUtilisation > 1 {
		t.Errorf("utilisation %v out of (0,1]", rep.FPUtilisation)
	}
	if rep.Stats.Draws != 4 {
		t.Errorf("draws = %d", rep.Stats.Draws)
	}
	if rep.Stats.CopyOps != 4 { // FB target: one CopyTexImage per iteration
		t.Errorf("copies = %d", rep.Stats.CopyOps)
	}
	if rep.LiveAllocations == 0 || rep.PeakBytes == 0 {
		t.Error("allocation bookkeeping missing")
	}
	s := rep.String()
	for _, want := range []string{"elapsed", "draws 4", "gpu memory"} {
		if !strings.Contains(s, want) {
			t.Errorf("report text missing %q:\n%s", want, s)
		}
	}
}

func TestDiscardExtensionMatchesClearTiming(t *testing.T) {
	// EXT_discard_framebuffer and glClear both invalidate the target: no
	// tile loads, no dependency bubbles on the target.
	run := func(useDiscard bool) (int64, int64) {
		n := 16
		cfg := baseConfig(n)
		cfg.UseDiscardExtension = useDiscard
		a := randMatrix(n, 1)
		b := randMatrix(n, 2)
		e, _ := NewEngine(cfg)
		r, err := NewSum(e, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := r.RunOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		st := e.Machine().Stats
		return st.TileLoads, st.Bubbles
	}
	for _, discard := range []bool{false, true} {
		loads, bubbles := run(discard)
		if loads != 0 {
			t.Errorf("discard=%v: %d tile loads, want 0", discard, loads)
		}
		if bubbles != 0 {
			t.Errorf("discard=%v: %d bubbles, want 0", discard, bubbles)
		}
	}
}

func TestTimingOnlyReplayKeepsResults(t *testing.T) {
	n := 8
	cfg := baseConfig(n)
	a := randMatrix(n, 1)
	b := randMatrix(n, 2)
	e, _ := NewEngine(cfg)
	r, err := NewSum(e, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.SetTimingOnly(true)
	for i := 0; i < 10; i++ {
		if err := r.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	e.SetTimingOnly(false)
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n*n)
	ref.Sum(a.Data, b.Data, want)
	if d := ref.MaxAbsDiff(want, got.Data); d > 1e-5 {
		t.Errorf("replay corrupted results: %g", d)
	}
}

// TestAllKernelsParallelShadingIdentity runs every runner serially and with
// four fragment-shading workers on identical inputs, demanding exactly
// equal decoded results, virtual end times and machine counters. This is
// the determinism guarantee of the host-parallel engine: worker count may
// only change host wall-clock time.
func TestAllKernelsParallelShadingIdentity(t *testing.T) {
	const n = 64 // main draws sit at the parallel gate's threshold
	type outcome struct {
		data  []float64
		now   int64
		stats [10]int64
	}
	runners := []struct {
		name  string
		build func(e *Engine) (interface {
			RunOnce(context.Context) error
			Result() (*codec.Matrix, error)
		}, error)
	}{
		{"sum", func(e *Engine) (interface {
			RunOnce(context.Context) error
			Result() (*codec.Matrix, error)
		}, error) {
			return NewSum(e, randMatrix(n, 41), randMatrix(n, 42))
		}},
		{"sgemm", func(e *Engine) (interface {
			RunOnce(context.Context) error
			Result() (*codec.Matrix, error)
		}, error) {
			return NewSgemm(e, randMatrix(n, 43), randMatrix(n, 44), 8)
		}},
		{"saxpy", func(e *Engine) (interface {
			RunOnce(context.Context) error
			Result() (*codec.Matrix, error)
		}, error) {
			return NewSaxpy(e, 0.5, randMatrix(n, 45), randMatrix(n, 46))
		}},
		{"jacobi", func(e *Engine) (interface {
			RunOnce(context.Context) error
			Result() (*codec.Matrix, error)
		}, error) {
			return NewJacobi(e, randMatrix(n, 47))
		}},
		{"transpose", func(e *Engine) (interface {
			RunOnce(context.Context) error
			Result() (*codec.Matrix, error)
		}, error) {
			return NewTranspose(e, randMatrix(n, 48))
		}},
		{"reduce", func(e *Engine) (interface {
			RunOnce(context.Context) error
			Result() (*codec.Matrix, error)
		}, error) {
			return NewReduce(e, randMatrix(n, 49))
		}},
		{"conv3x3", func(e *Engine) (interface {
			RunOnce(context.Context) error
			Result() (*codec.Matrix, error)
		}, error) {
			return NewConv3x3(e, randMatrix(n, 50), [9]float32{0.1, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1})
		}},
	}
	for _, rc := range runners {
		t.Run(rc.name, func(t *testing.T) {
			run := func(workers int) outcome {
				cfg := baseConfig(n)
				cfg.Workers = workers
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, err := rc.build(e)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if err := r.RunOnce(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				got, err := r.Result()
				if err != nil {
					t.Fatal(err)
				}
				e.Finish()
				s := e.Machine().Stats
				return outcome{
					data: got.Data,
					now:  int64(e.Now()),
					stats: [10]int64{s.Draws, s.Bubbles, s.WARStalls, s.CopyOps, s.CopyBytes,
						s.UploadOps, s.UploadBytes, s.TileLoads, s.TileStores, s.FragmentsShaded},
				}
			}
			serial := run(1)
			parallel := run(4)
			if serial.now != parallel.now {
				t.Errorf("virtual end time: serial %d, parallel %d", serial.now, parallel.now)
			}
			if serial.stats != parallel.stats {
				t.Errorf("machine stats diverge:\nserial   %v\nparallel %v", serial.stats, parallel.stats)
			}
			if len(serial.data) != len(parallel.data) {
				t.Fatalf("result sizes diverge: %d vs %d", len(serial.data), len(parallel.data))
			}
			for i := range serial.data {
				if serial.data[i] != parallel.data[i] {
					t.Fatalf("result[%d]: serial %v, parallel %v", i, serial.data[i], parallel.data[i])
				}
			}
		})
	}
}
