package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/gles"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/pipeline"
)

// Sentinel errors the admission path returns. The HTTP layer maps
// ErrOverloaded to 429 with Retry-After and ErrDraining/ErrStopped to 503.
var (
	ErrOverloaded = errors.New("serve: device queue full")
	ErrDraining   = errors.New("serve: draining, not accepting jobs")
	ErrStopped    = errors.New("serve: scheduler stopped")
)

// Config sizes the scheduler.
type Config struct {
	// Devices lists the device pools to run (device.ByName vocabulary).
	// Default: vc4 and sgx, the paper's two platforms.
	Devices []string
	// Workers is the worker-goroutine count per device pool (default 1).
	// Each worker owns its engines outright, so engine state is never
	// shared across goroutines; workers in one pool share the compiled
	// shaders through the pool's SharedProgramCache.
	Workers int
	// QueueDepth bounds each device queue (default 64). A full queue
	// rejects with ErrOverloaded — backpressure, not buffering.
	QueueDepth int
	// MaxBatch caps how many compatible jobs one batch coalesces
	// (default 8).
	MaxBatch int
	// TensorPoolBytes is the per-engine residency-pool budget
	// (default 32 MiB). Negative disables pooling.
	TensorPoolBytes int
	// MaxRunners caps the warm-runner cache per worker (default 4).
	// Evicted runners release their tensors into the engine pool, so a
	// rebuilt runner's allocations are pool hits.
	MaxRunners int
	// NoCoherence disables worker engines' cross-iteration tile-coherence
	// cache, re-shading every tile on every draw. Host time only — results
	// and virtual-time figures are bit-identical either way.
	NoCoherence bool
	// NoFuse disables proof-gated pass fusion in the pipeline planner for
	// worker engines: pipeline jobs run every stage as its own pass. Host
	// time only — results and virtual-time figures are bit-identical
	// either way (the fusion contract).
	NoFuse bool
}

func (c Config) withDefaults() Config {
	if len(c.Devices) == 0 {
		c.Devices = []string{"vc4", "sgx"}
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.TensorPoolBytes == 0 {
		c.TensorPoolBytes = 32 << 20
	}
	if c.MaxRunners <= 0 {
		c.MaxRunners = 4
	}
	return c
}

// Job is a submitted job handle.
type Job struct {
	params Params
	key    kernelKey
	ctx    context.Context
	done   chan struct{}
	res    *Result
	err    error
}

func (j *Job) finish(res *Result, err error) {
	j.res, j.err = res, err
	close(j.done)
}

// Wait blocks until the job completes, fails, or ctx expires. A job whose
// wait is abandoned still runs (or is discarded by the worker once its
// submit context is canceled).
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Scheduler runs per-device worker pools over bounded queues.
type Scheduler struct {
	cfg     Config
	metrics *Metrics
	pools   map[string]*devicePool
	order   []string

	mu       sync.Mutex
	started  bool
	draining bool
	stopped  bool
	wg       sync.WaitGroup
}

// New builds a scheduler (pools, engines' shared caches, metrics) without
// starting any worker. Jobs may be submitted before Start — they queue up
// and run when the workers launch, which tests use to force coalescing.
func New(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, metrics: newMetrics(), pools: map[string]*devicePool{}}
	s.metrics.setEngineConfig(!cfg.NoCoherence && gles.DefaultCoherence(),
		!cfg.NoFuse && pipeline.DefaultFuse())
	for _, name := range cfg.Devices {
		if _, dup := s.pools[name]; dup {
			return nil, fmt.Errorf("serve: duplicate device %q", name)
		}
		prof, err := device.ByName(name)
		if err != nil {
			return nil, err
		}
		p := &devicePool{
			name:    name,
			profile: prof, // the pool's single shared instance
			progs:   gles.NewSharedProgramCache(),
			sched:   s,
		}
		p.cond = sync.NewCond(&p.mu)
		for i := 0; i < cfg.Workers; i++ {
			p.workers = append(p.workers, &worker{pool: p})
		}
		s.pools[name] = p
		s.order = append(s.order, name)
		s.metrics.registerDevice(name, p.depth, p.gauge)
	}
	return s, nil
}

// Start launches the worker goroutines.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for _, name := range s.order {
		p := s.pools[name]
		for _, w := range p.workers {
			s.wg.Add(1)
			go func(w *worker) {
				defer s.wg.Done()
				w.run()
			}(w)
		}
	}
}

// Metrics exposes the scheduler's counters.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// Devices lists the pool names in configuration order.
func (s *Scheduler) Devices() []string { return append([]string(nil), s.order...) }

// QueueDepth reports the live queue depth of one device pool.
func (s *Scheduler) QueueDepth(dev string) int {
	if p, ok := s.pools[dev]; ok {
		return p.depth()
	}
	return 0
}

// RetryAfter estimates when a rejected client should try again: the queue
// drain time at one job per 10ms, floored at one second. Deliberately
// coarse — its job is pacing, not prediction.
func (s *Scheduler) RetryAfter(dev string) time.Duration {
	d := time.Duration(s.QueueDepth(dev)) * 10 * time.Millisecond / time.Duration(s.cfg.Workers)
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Submit validates and enqueues a job. ctx is the job's context: if it is
// canceled while the job waits in queue or between the passes of its
// kernel, the job is abandoned.
func (s *Scheduler) Submit(ctx context.Context, p Params) (*Job, error) {
	key, err := p.normalize()
	if err != nil {
		dev := p.Device
		if dev == "" {
			dev = "unknown"
		}
		s.metrics.reject(dev, "invalid")
		return nil, err
	}
	pool, ok := s.pools[p.Device]
	if !ok {
		s.metrics.reject(p.Device, "invalid")
		return nil, fmt.Errorf("serve: device %q not served (have %v)", p.Device, s.order)
	}
	j := &Job{params: p, key: key, ctx: ctx, done: make(chan struct{})}
	if err := pool.enqueue(j, s.cfg.QueueDepth); err != nil {
		reason := "queue_full"
		if errors.Is(err, ErrDraining) || errors.Is(err, ErrStopped) {
			reason = "draining"
		}
		s.metrics.reject(p.Device, reason)
		return nil, err
	}
	s.metrics.submit(p.Device)
	return j, nil
}

// Do submits a job and waits for its result.
func (s *Scheduler) Do(ctx context.Context, p Params) (*Result, error) {
	j, err := s.Submit(ctx, p)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// Drain stops admission and waits until every queued and in-flight job has
// completed and all workers have exited. Returns ctx.Err if ctx expires
// first (workers keep finishing in the background). After Drain the
// scheduler is terminal: Submit fails with ErrDraining.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, p := range s.pools {
			p.setDraining()
		}
	}
	started := s.started
	s.mu.Unlock()
	if !started {
		// No workers to flush the queues: fail queued jobs directly.
		for _, p := range s.pools {
			for _, j := range p.takeAll() {
				j.finish(nil, ErrDraining)
			}
		}
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stop aborts: admission closes, queued jobs fail with ErrStopped, and
// Stop returns once in-flight batches finish.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	started := s.started
	pools := s.pools
	s.mu.Unlock()
	for _, p := range pools {
		for _, j := range p.setStopped() {
			j.finish(nil, ErrStopped)
		}
	}
	if started {
		s.wg.Wait()
	}
}

// devicePool is one device's queue plus its workers' shared compilation
// state. All engines in the pool are built from the same *device.Profile
// instance — the condition for sharing compiled programs (the lane
// compiler memoises per cost-model identity).
type devicePool struct {
	name    string
	profile *device.Profile
	progs   *gles.SharedProgramCache
	sched   *Scheduler
	workers []*worker

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Job
	draining bool
	stopped  bool
}

func (p *devicePool) enqueue(j *Job, depth int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return ErrStopped
	}
	if p.draining {
		return ErrDraining
	}
	if len(p.queue) >= depth {
		return ErrOverloaded
	}
	p.queue = append(p.queue, j)
	p.cond.Signal()
	return nil
}

func (p *devicePool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

func (p *devicePool) setDraining() {
	p.mu.Lock()
	p.draining = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *devicePool) setStopped() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	q := p.queue
	p.queue = nil
	p.cond.Broadcast()
	return q
}

func (p *devicePool) takeAll() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.queue
	p.queue = nil
	return q
}

// nextBatch blocks for work, then coalesces the maximal run of jobs at the
// queue head that share the head's kernel key, up to max. Returns nil when
// the pool shuts down with an empty queue.
func (p *devicePool) nextBatch(max int) []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 {
		if p.stopped || p.draining {
			return nil
		}
		p.cond.Wait()
	}
	if p.stopped {
		return nil
	}
	head := p.queue[0]
	batch := []*Job{head}
	rest := p.queue[1:]
	for len(rest) > 0 && len(batch) < max && rest[0].key == head.key {
		batch = append(batch, rest[0])
		rest = rest[1:]
	}
	p.queue = append(p.queue[:0:0], rest...)
	return batch
}

// gauge snapshots the pool's reuse state for /metrics. It takes each
// worker's lock, so it briefly serialises with batch execution.
func (p *devicePool) gauge() PoolGauge {
	var g PoolGauge
	gh, gm := p.progs.Stats()
	g.ProgHits, g.ProgMisses = gh, gm
	for _, w := range p.workers {
		w.mu.Lock()
		for _, e := range w.engines {
			st := e.TensorPool().Stats()
			g.PoolHits += st.Hits
			g.PoolMisses += st.Misses
			g.PoolEvictions += st.Evictions
			g.PoolReleased += st.Released
			g.PoolLiveBytes += st.LiveBytes
			g.SubUploads += e.GL().Allocator().SubUpdates
			elided, shaded := e.CoherenceStats()
			g.TilesElided += elided
			g.TilesShaded += shaded
			g.LaneFallbackDraws += e.LaneFallbackDraws()
		}
		g.RunnersLive += len(w.runners)
		g.RunnerEvictions += int64(w.runnerEvictions)
		g.RunnerHits += w.runnerHits
		g.RunnerMisses += w.runnerMisses
		w.mu.Unlock()
	}
	return g
}

// worker owns engines (one per grid size) and a warm-runner cache. Its
// mutex covers everything it owns; it is held for the duration of each
// batch, so metric gauges never observe half-updated engine state.
type worker struct {
	pool *devicePool

	mu              sync.Mutex
	engines         map[int]*core.Engine
	runners         map[kernelKey]*warmRunner
	lru             []kernelKey
	runnerEvictions int
	// runnerHits counts batches served by an already-warm runner;
	// runnerMisses counts builds. The ratio is the service's warmth signal:
	// the shard router's affinity argument is precisely that hashing job
	// keys to replicas keeps this hit rate high where round-robin dilutes
	// every replica's LRU with every key.
	runnerHits   int64
	runnerMisses int64
}

// warmRunner is a built kernel runner or compiled pipeline plan kept
// across jobs: re-running it only re-uploads inputs (sub-image path) and
// dispatches. Exactly one of run (kernel jobs) or plan (pipeline jobs) is
// set.
type warmRunner struct {
	run core.Runner
	e   *core.Engine
	set func(a, b *codec.Matrix) error

	// Pipeline state: the compiled plan, its resident source tensor, and
	// the graph's final declared output. Keeping the plan warm is what
	// makes repeated jobs fuse — the first run primes the per-draw timing
	// cache, every later run of the key takes the fused schedule.
	plan    *pipeline.Plan
	src     *core.Tensor
	outName string
}

// release returns the runner's GPU state to the engine's residency pool.
func (wr *warmRunner) release() {
	if wr.plan != nil {
		wr.plan.Release()
		wr.src.Release()
		return
	}
	if rel, ok := wr.run.(core.Releaser); ok {
		rel.Release()
	}
}

// visionGraph builds the prebuilt n×n vision graph a pipeline job names
// (the Params vocabulary validated by normalize).
func visionGraph(name string, n int) (pipeline.Graph, error) {
	o := kernels.DefaultOptions
	switch name {
	case "sepconv":
		return pipeline.SepConvGraph(n, n, o), nil
	case "adaptive":
		return pipeline.AdaptiveThresholdGraph(n, n, 2, o), nil
	case "histeq":
		return pipeline.HistEqGraph(n, n, 8, o), nil
	case "sobel":
		return pipeline.SobelGraph(n, n, o), nil
	case "pyramid":
		return pipeline.PyramidGraph(n, 3, o)
	}
	return pipeline.Graph{}, fmt.Errorf("serve: unknown pipeline %q", name)
}

func (w *worker) run() {
	for {
		batch := w.pool.nextBatch(w.pool.sched.cfg.MaxBatch)
		if batch == nil {
			return
		}
		w.mu.Lock()
		w.runBatch(batch)
		w.mu.Unlock()
	}
}

// engineFor returns the worker's engine for an n×n grid, building it on
// first use with the pool's shared program cache and a residency pool.
func (w *worker) engineFor(n int) (*core.Engine, error) {
	if e, ok := w.engines[n]; ok {
		return e, nil
	}
	e, err := core.NewEngine(core.Config{
		Device: w.pool.profile,
		Width:  n, Height: n,
		Swap:            core.SwapNone,
		Target:          core.TargetTexture,
		UseVBO:          true,
		ProgramCache:    w.pool.progs,
		TensorPoolBytes: w.pool.sched.cfg.TensorPoolBytes,
		NoCoherence:     w.pool.sched.cfg.NoCoherence,
		NoFuse:          w.pool.sched.cfg.NoFuse,
	})
	if err != nil {
		return nil, err
	}
	if w.engines == nil {
		w.engines = map[int]*core.Engine{}
	}
	w.engines[n] = e
	return e, nil
}

// runnerFor returns the warm runner for a job's kernel key, building one
// from the job's inputs on miss and applying LRU eviction.
func (w *worker) runnerFor(j *Job) (*warmRunner, error) {
	if wr, ok := w.runners[j.key]; ok {
		w.runnerHits++
		w.touch(j.key)
		return wr, nil
	}
	w.runnerMisses++
	e, err := w.engineFor(j.params.N)
	if err != nil {
		return nil, err
	}
	if j.params.Pipeline != "" {
		g, err := visionGraph(j.params.Pipeline, j.params.N)
		if err != nil {
			return nil, err
		}
		src := e.NewTensor(j.params.N, j.params.N, codec.Unit)
		plan, err := pipeline.Compile(e, g)
		if err != nil {
			src.Release()
			return nil, err
		}
		wr := &warmRunner{e: e, plan: plan, src: src, outName: g.Outputs[len(g.Outputs)-1]}
		w.install(j.key, wr)
		return wr, nil
	}
	a, b := j.params.Inputs()
	wr := &warmRunner{e: e}
	switch j.params.Kernel {
	case "sum":
		r, err := core.NewSum(e, a, b)
		if err != nil {
			return nil, err
		}
		wr.run, wr.set = r, r.SetInputs
	case "sgemm":
		r, err := core.NewSgemm(e, a, b, j.params.Block)
		if err != nil {
			return nil, err
		}
		wr.run, wr.set = r, r.SetInputs
	case "saxpy":
		alpha := float32(j.params.Alpha)
		r, err := core.NewSaxpy(e, alpha, a, b)
		if err != nil {
			return nil, err
		}
		wr.run = r
		wr.set = func(a, b *codec.Matrix) error { return r.SetInputs(alpha, a, b) }
	default:
		return nil, fmt.Errorf("serve: unknown kernel %q", j.params.Kernel)
	}
	w.install(j.key, wr)
	return wr, nil
}

// install caches a freshly built runner under its key, evicting LRU
// entries over the cap.
func (w *worker) install(k kernelKey, wr *warmRunner) {
	if w.runners == nil {
		w.runners = map[kernelKey]*warmRunner{}
	}
	w.runners[k] = wr
	w.lru = append(w.lru, k)
	for len(w.runners) > w.pool.sched.cfg.MaxRunners {
		w.evictOldest()
	}
}

func (w *worker) touch(k kernelKey) {
	for i, key := range w.lru {
		if key == k {
			w.lru = append(append(w.lru[:i:i], w.lru[i+1:]...), k)
			return
		}
	}
}

func (w *worker) evictOldest() {
	k := w.lru[0]
	w.lru = w.lru[1:]
	if wr, ok := w.runners[k]; ok {
		delete(w.runners, k)
		wr.release()
		w.runnerEvictions++
	}
}

// drop poisons a runner after a failed execution: its double-buffered
// state may be mid-flight, so the next job of this key rebuilds from
// scratch (the tensors still recycle through the pool).
func (w *worker) drop(k kernelKey) {
	wr, ok := w.runners[k]
	if !ok {
		return
	}
	delete(w.runners, k)
	for i, key := range w.lru {
		if key == k {
			w.lru = append(w.lru[:i:i], w.lru[i+1:]...)
			break
		}
	}
	wr.release()
}

// jobLabel is the workload label job metrics carry: the kernel name, or
// "pipeline:<graph>" for pipeline jobs.
func jobLabel(p *Params) string {
	if p.Pipeline != "" {
		return "pipeline:" + p.Pipeline
	}
	return p.Kernel
}

// runBatch executes the coalesced jobs sequentially on the warm runner.
// Caller holds w.mu.
func (w *worker) runBatch(batch []*Job) {
	m := w.pool.sched.metrics
	m.batch(w.pool.name, len(batch))
	wr, err := w.runnerFor(batch[0])
	if err != nil {
		for _, j := range batch {
			m.fail(w.pool.name, jobLabel(&j.params))
			j.finish(nil, err)
		}
		return
	}
	for i, j := range batch {
		label := jobLabel(&j.params)
		if err := j.ctx.Err(); err != nil {
			m.cancel(w.pool.name)
			j.finish(nil, err)
			continue
		}
		hostStart := time.Now()
		vStart := wr.e.Now()
		var res *Result
		var runErr error
		if wr.plan != nil {
			res, runErr = w.runPipelineJob(wr, j)
		} else {
			res, runErr = w.runKernelJob(wr, j)
		}
		if runErr != nil {
			if j.ctx.Err() != nil {
				m.cancel(w.pool.name)
			} else {
				m.fail(w.pool.name, label)
			}
			w.drop(j.key)
			j.finish(nil, runErr)
			continue
		}
		res.Device = w.pool.name
		res.VirtualTime = wr.e.Now() - vStart
		res.HostNanos = time.Since(hostStart).Nanoseconds()
		res.BatchSize = len(batch)
		res.BatchIndex = i
		m.complete(w.pool.name, label, res.VirtualTime, time.Duration(res.HostNanos))
		j.finish(res, nil)
	}
}

// runKernelJob rebinds the warm runner's inputs and executes one kernel
// job. Caller holds w.mu and fills the Result's placement/timing fields.
func (w *worker) runKernelJob(wr *warmRunner, j *Job) (*Result, error) {
	a, b := j.params.Inputs()
	if err := wr.set(a, b); err != nil {
		return nil, err
	}
	if err := wr.run.RunOnce(j.ctx); err != nil {
		return nil, err
	}
	wr.e.Finish()
	out, err := wr.run.Result()
	if err != nil {
		return nil, err
	}
	return &Result{Out: out.Data, N: j.params.N, Kernel: j.params.Kernel}, nil
}

// runPipelineJob re-uploads the job's source image into the warm plan's
// resident tensor, runs the whole graph, and reads back the final declared
// output. Per-stage virtual times and the plan's fusion/residency counters
// flow into both the Result and the device's pipeline metrics. Caller
// holds w.mu and fills the Result's placement/timing fields.
func (w *worker) runPipelineJob(wr *warmRunner, j *Job) (*Result, error) {
	if err := wr.src.Upload(j.params.Source(), true); err != nil {
		return nil, err
	}
	stats, err := wr.plan.Run(map[string]*core.Tensor{pipeline.SrcInput: wr.src})
	if err != nil {
		return nil, err
	}
	wr.e.Finish()
	out, err := wr.plan.Output(wr.outName).Read()
	if err != nil {
		return nil, err
	}
	stages := make([]StageResult, len(stats.Stages))
	for si, st := range stats.Stages {
		stages[si] = StageResult{Name: st.Name, VirtualTime: st.VirtualTime}
	}
	w.pool.sched.metrics.pipelineRun(w.pool.name, len(stats.Stages), stats.PassesFused, stats.ReadbacksElided)
	return &Result{
		Out:             out.Data,
		N:               out.Rows,
		Pipeline:        j.params.Pipeline,
		Stages:          stages,
		PassesFused:     stats.PassesFused,
		ReadbacksElided: stats.ReadbacksElided,
	}, nil
}
