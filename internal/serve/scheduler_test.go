package serve

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"gles2gpgpu/internal/ref"
)

func sumParams(seed int64) Params {
	return Params{Device: "vc4", Kernel: "sum", N: 16, Seed: seed}
}

// TestQueueFullRejection pins the backpressure contract: a full queue
// rejects with ErrOverloaded (the HTTP layer's 429) instead of buffering.
func TestQueueFullRejection(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4"}, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	j1, err := s.Submit(ctx, sumParams(1))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(ctx, sumParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, sumParams(3)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submit: got %v, want ErrOverloaded", err)
	}
	if got := s.QueueDepth("vc4"); got != 2 {
		t.Errorf("queue depth = %d, want 2", got)
	}
	if s.RetryAfter("vc4") <= 0 {
		t.Error("RetryAfter must be positive")
	}

	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `gles2gpgpud_jobs_rejected_total{device="vc4",reason="queue_full"} 1`) {
		t.Errorf("metrics missing queue_full rejection:\n%s", buf.String())
	}

	// Stop on a never-started scheduler fails the queued jobs.
	s.Stop()
	if _, err := j1.Wait(ctx); !errors.Is(err, ErrStopped) {
		t.Errorf("j1 after Stop: got %v, want ErrStopped", err)
	}
	if _, err := j2.Wait(ctx); !errors.Is(err, ErrStopped) {
		t.Errorf("j2 after Stop: got %v, want ErrStopped", err)
	}
	if _, err := s.Submit(ctx, sumParams(4)); !errors.Is(err, ErrStopped) {
		t.Errorf("submit after Stop: got %v, want ErrStopped", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ctx := context.Background()
	cases := []Params{
		{Device: "vc4", Kernel: "jacobi", N: 16}, // unserved kernel
		{Device: "vc4", Kernel: "sum", N: 0},     // bad size via explicit negative
		{Device: "vc4", Kernel: "sum", N: MaxJobSize * 2},
		{Device: "vc4", Kernel: "sgemm", N: 16, Block: 5},     // block must divide N
		{Device: "vc4", Kernel: "sum", N: 4, A: []float64{1}}, // inline length mismatch
		{Device: "nosuch", Kernel: "sum", N: 16},
	}
	cases[1].N = -1
	for _, p := range cases {
		if _, err := s.Submit(ctx, p); err == nil {
			t.Errorf("Submit(%+v) unexpectedly accepted", p)
		}
	}
}

// TestCoalescingAndResidency enqueues before Start so the batch content is
// deterministic: three same-key sum jobs coalesce into one batch, and with
// MaxRunners=1 the sgemm job evicts the warm sum runner, whose released
// tensors then serve the rebuilt sum runner from the residency pool.
func TestCoalescingAndResidency(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4"}, MaxBatch: 4, MaxRunners: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var sums []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(ctx, sumParams(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, j)
	}
	jg, err := s.Submit(ctx, Params{Device: "vc4", Kernel: "sgemm", N: 16, Block: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	jl, err := s.Submit(ctx, sumParams(5))
	if err != nil {
		t.Fatal(err)
	}

	s.Start()
	for i, j := range sums {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("sum job %d: %v", i, err)
		}
		if res.BatchSize != 3 || res.BatchIndex != i {
			t.Errorf("sum job %d: batch %d/%d, want %d/3", i, res.BatchIndex, res.BatchSize, i)
		}
		// Every job's matrix must match the CPU reference for its seed.
		p := sumParams(int64(i + 1))
		a, b := p.Inputs()
		want := make([]float64, 16*16)
		ref.Sum(a.Data, b.Data, want)
		if d := ref.MaxAbsDiff(want, res.Out); d > 1e-3 {
			t.Errorf("sum job %d: max error %g", i, d)
		}
	}
	if _, err := jg.Wait(ctx); err != nil {
		t.Fatalf("sgemm job: %v", err)
	}
	if _, err := jl.Wait(ctx); err != nil {
		t.Fatalf("trailing sum job: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if got := s.Metrics().CoalescedBatches("vc4"); got < 1 {
		t.Errorf("coalesced batches = %d, want >= 1", got)
	}
	g := s.pools["vc4"].gauge()
	if g.RunnerEvictions < 2 {
		t.Errorf("runner evictions = %d, want >= 2 (sum->sgemm->sum with MaxRunners=1)", g.RunnerEvictions)
	}
	if g.PoolHits == 0 {
		t.Error("tensor pool hits = 0, want > 0 (rebuilt runner must recycle released tensors)")
	}
	if g.SubUploads == 0 {
		t.Error("sub-image uploads = 0, want > 0 (warm re-runs take the TexSubImage2D path)")
	}
	if _, err := s.Submit(ctx, sumParams(6)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: got %v, want ErrDraining", err)
	}
}

// TestCancelMidBatch cancels the middle job of a coalesced batch before the
// workers start: its neighbours must still complete and only it reports the
// cancellation.
func TestCancelMidBatch(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4"}, MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	cctx, cancel := context.WithCancel(bg)
	j1, err := s.Submit(bg, sumParams(1))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(cctx, sumParams(2))
	if err != nil {
		t.Fatal(err)
	}
	j3, err := s.Submit(bg, sumParams(3))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	s.Start()
	defer s.Stop()

	res1, err := j1.Wait(bg)
	if err != nil {
		t.Fatalf("j1: %v", err)
	}
	if res1.BatchSize != 3 {
		t.Errorf("j1 batch size = %d, want 3 (cancelled job still counted)", res1.BatchSize)
	}
	if _, err := j2.Wait(bg); !errors.Is(err, context.Canceled) {
		t.Errorf("j2: got %v, want context.Canceled", err)
	}
	if _, err := j3.Wait(bg); err != nil {
		t.Fatalf("j3: %v", err)
	}

	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `gles2gpgpud_jobs_canceled_total{device="vc4"} 1`) {
		t.Errorf("metrics missing cancellation:\n%s", buf.String())
	}
}

// TestDrainCompletesInFlight checks graceful shutdown: Drain must flush
// every already-queued job to completion, not abandon it.
func TestDrainCompletesInFlight(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4", "sgx"}, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 6; i++ {
		dev := []string{"vc4", "sgx"}[i%2]
		j, err := s.Submit(ctx, Params{Device: dev, Kernel: "sum", N: 16, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Start()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d after drain: %v", i, err)
		}
		if len(res.Out) != 16*16 {
			t.Fatalf("job %d: result has %d values, want %d", i, len(res.Out), 16*16)
		}
	}
	// Drain is idempotent and terminal.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if _, err := s.Submit(ctx, sumParams(9)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: got %v, want ErrDraining", err)
	}
}

// TestWaitHonoursContext: an abandoned Wait does not leak the job; the
// scheduler still runs it.
func TestWaitHonoursContext(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4"}})
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	j, err := s.Submit(bg, sumParams(1))
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(bg)
	cancel()
	if _, err := j.Wait(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with canceled ctx: got %v", err)
	}
	s.Start()
	if _, err := j.Wait(bg); err != nil {
		t.Fatalf("job still completes after abandoned wait: %v", err)
	}
	s.Stop()
}

// TestMetricsMaskedLanes pins the lane observability surface: the
// per-device lane-fallback counter is exported after jobs run, and stays
// zero because every served kernel runs on lanes (the line itself must
// still be present for dashboards to find).
func TestMetricsMaskedLanes(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4"}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if _, err := s.Do(context.Background(), sumParams(1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if !strings.Contains(buf.String(), `gles2gpgpud_lane_fallback_draws_total{device="vc4"} 0`) {
		t.Errorf("metrics missing the zero per-device lane-fallback counter:\n%s", buf.String())
	}
}
