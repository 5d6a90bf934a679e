package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"gles2gpgpu/internal/timing"
)

// latencyBuckets are the histogram upper bounds in seconds, shared by the
// host-clock and virtual-clock job-latency histograms (virtual times on the
// simulated devices land in the same milliseconds-to-seconds decades as
// host times, so one bucket ladder serves both).
var latencyBuckets = []float64{
	1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10,
}

// histogram is a fixed-bucket Prometheus-style histogram.
type histogram struct {
	counts []int64 // one per bucket, cumulative only at render time
	sum    float64
	total  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets))}
}

func (h *histogram) observe(v float64) {
	h.sum += v
	h.total++
	for i, ub := range latencyBuckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
}

// Metrics aggregates service counters. All methods are safe for concurrent
// use: workers record on their goroutines while /metrics renders.
type Metrics struct {
	mu sync.Mutex

	submitted map[string]int64         // by device
	rejected  map[[2]string]int64      // by device, reason
	completed map[[2]string]int64      // by device, kernel
	failed    map[[2]string]int64      // by device, kernel
	canceled  map[string]int64         // by device
	batches   map[string]int64         // by device
	coalesced map[string]int64         // by device: batches with >= 2 jobs
	batchJobs map[string]int64         // by device: jobs that ran in batches
	latency   map[[3]string]*histogram // by device, kernel, clock

	// Pipeline-job counters, by device: stage dispatches executed, stage
	// dispatches avoided through proof-gated fusion, and intermediate
	// results kept resident on-device instead of round-tripping through a
	// host readback.
	pipeStages      map[string]int64
	pipePassesFused map[string]int64
	pipeElided      map[string]int64

	// Probes are registered by New before any worker starts and never
	// mutated after, so they are read without the mutex. They take worker
	// and pool locks, which workers hold while updating the counters
	// above — rendering therefore evaluates all probes BEFORE taking mu
	// (see WritePrometheus) to keep the lock order acyclic.
	queue  map[string]func() int       // by device: live depth probe
	gauges map[string]func() PoolGauge // by device: residency/cache probes

	// Engine configuration, set once by New before any worker starts:
	// whether the cross-iteration tile-coherence cache is enabled, and
	// whether the pipeline planner's proof-gated pass fusion is enabled.
	coherence bool
	fusion    bool
}

// PoolGauge is a point-in-time snapshot of one device pool's reuse state,
// provided by the scheduler.
type PoolGauge struct {
	PoolHits, PoolMisses, PoolEvictions, PoolReleased int64
	PoolLiveBytes                                     int
	ProgHits, ProgMisses                              int64
	RunnersLive                                       int
	RunnerEvictions                                   int64
	RunnerHits, RunnerMisses                          int64
	SubUploads                                        int64
	TilesElided, TilesShaded                          int64
	LaneFallbackDraws                                 int64
}

func newMetrics() *Metrics {
	return &Metrics{
		submitted: map[string]int64{},
		rejected:  map[[2]string]int64{},
		completed: map[[2]string]int64{},
		failed:    map[[2]string]int64{},
		canceled:  map[string]int64{},
		batches:   map[string]int64{},
		coalesced: map[string]int64{},
		batchJobs: map[string]int64{},
		latency:   map[[3]string]*histogram{},

		pipeStages:      map[string]int64{},
		pipePassesFused: map[string]int64{},
		pipeElided:      map[string]int64{},

		queue:  map[string]func() int{},
		gauges: map[string]func() PoolGauge{},
	}
}

func (m *Metrics) submit(dev string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted[dev]++
}

func (m *Metrics) reject(dev, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected[[2]string{dev, reason}]++
}

func (m *Metrics) complete(dev, kernel string, virtual timing.Time, host time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed[[2]string{dev, kernel}]++
	for _, obs := range []struct {
		clock string
		secs  float64
	}{
		{"virtual", virtual.Seconds()},
		{"host", host.Seconds()},
	} {
		k := [3]string{dev, kernel, obs.clock}
		h := m.latency[k]
		if h == nil {
			h = newHistogram()
			m.latency[k] = h
		}
		h.observe(obs.secs)
	}
}

func (m *Metrics) fail(dev, kernel string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failed[[2]string{dev, kernel}]++
}

func (m *Metrics) cancel(dev string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.canceled[dev]++
}

func (m *Metrics) batch(dev string, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches[dev]++
	m.batchJobs[dev] += int64(size)
	if size >= 2 {
		m.coalesced[dev]++
	}
}

// setEngineConfig records the worker engines' fragment-shading setup for
// the static config gauges. Must happen before Start.
func (m *Metrics) setEngineConfig(coherence, fusion bool) {
	m.coherence = coherence
	m.fusion = fusion
}

// pipelineRun accumulates one pipeline job's per-stage and fusion counters.
func (m *Metrics) pipelineRun(dev string, stages, passesFused, elided int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pipeStages[dev] += int64(stages)
	m.pipePassesFused[dev] += int64(passesFused)
	m.pipeElided[dev] += int64(elided)
}

// registerDevice installs a pool's probes. Must happen before Start.
func (m *Metrics) registerDevice(dev string, depth func() int, gauge func() PoolGauge) {
	m.queue[dev] = depth
	m.gauges[dev] = gauge
}

// CoalescedBatches returns the number of multi-job batches on a device.
func (m *Metrics) CoalescedBatches(dev string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.coalesced[dev]
}

// PoolHitRate returns a device's live tensor-pool hit rate (0 when the pool
// is disabled or has seen no traffic).
func (m *Metrics) PoolHitRate(dev string) float64 {
	probe, ok := m.gauges[dev]
	if !ok {
		return 0
	}
	g := probe()
	if g.PoolHits+g.PoolMisses == 0 {
		return 0
	}
	return float64(g.PoolHits) / float64(g.PoolHits+g.PoolMisses)
}

// DeviceStats is one device pool's warmth and traffic snapshot, the JSON
// twin of the Prometheus gauges. The shard router's load sweep reads the
// runner and tensor-pool hit/miss pairs before and after a run to prove
// affinity routing keeps replicas warmer than round-robin.
type DeviceStats struct {
	QueueDepth      int   `json:"queue_depth"`
	JobsSubmitted   int64 `json:"jobs_submitted"`
	JobsCompleted   int64 `json:"jobs_completed"`
	JobsFailed      int64 `json:"jobs_failed"`
	Batches         int64 `json:"batches"`
	RunnerHits      int64 `json:"runner_hits"`
	RunnerMisses    int64 `json:"runner_misses"`
	RunnersLive     int   `json:"runners_live"`
	RunnerEvictions int64 `json:"runner_evictions"`
	PoolHits        int64 `json:"pool_hits"`
	PoolMisses      int64 `json:"pool_misses"`
	PoolEvictions   int64 `json:"pool_evictions"`
	PoolLiveBytes   int   `json:"pool_live_bytes"`
	ProgHits        int64 `json:"prog_hits"`
	ProgMisses      int64 `json:"prog_misses"`
	TilesElided     int64 `json:"tiles_elided"`
	TilesShaded     int64 `json:"tiles_shaded"`
}

// Stats is the /v1/stats document: per-device warmth counters.
type Stats struct {
	Devices map[string]DeviceStats `json:"devices"`
}

// Stats snapshots every device pool's counters. Like WritePrometheus it
// evaluates the live probes (which take worker locks) before taking the
// metrics mutex, keeping the lock order acyclic.
func (m *Metrics) Stats() Stats {
	depths := map[string]int{}
	for _, dev := range sortedKeys(m.queue) {
		depths[dev] = m.queue[dev]()
	}
	gauges := map[string]PoolGauge{}
	for _, dev := range sortedKeys(m.gauges) {
		gauges[dev] = m.gauges[dev]()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Devices: map[string]DeviceStats{}}
	for dev, g := range gauges {
		ds := DeviceStats{
			QueueDepth:      depths[dev],
			JobsSubmitted:   m.submitted[dev],
			Batches:         m.batches[dev],
			RunnerHits:      g.RunnerHits,
			RunnerMisses:    g.RunnerMisses,
			RunnersLive:     g.RunnersLive,
			RunnerEvictions: g.RunnerEvictions,
			PoolHits:        g.PoolHits,
			PoolMisses:      g.PoolMisses,
			PoolEvictions:   g.PoolEvictions,
			PoolLiveBytes:   g.PoolLiveBytes,
			ProgHits:        g.ProgHits,
			ProgMisses:      g.ProgMisses,
			TilesElided:     g.TilesElided,
			TilesShaded:     g.TilesShaded,
		}
		for k, v := range m.completed {
			if k[0] == dev {
				ds.JobsCompleted += v
			}
		}
		for k, v := range m.failed {
			if k[0] == dev {
				ds.JobsFailed += v
			}
		}
		st.Devices[dev] = ds
	}
	return st
}

// WritePrometheus renders the counters in the Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	// Evaluate the live probes first: they acquire worker locks whose
	// holders in turn record into the counters below.
	depths := map[string]int{}
	for _, dev := range sortedKeys(m.queue) {
		depths[dev] = m.queue[dev]()
	}
	gauges := map[string]PoolGauge{}
	for _, dev := range sortedKeys(m.gauges) {
		gauges[dev] = m.gauges[dev]()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	var b []byte
	appendf := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}

	appendf("# HELP gles2gpgpud_jobs_submitted_total Jobs accepted into a device queue.\n# TYPE gles2gpgpud_jobs_submitted_total counter\n")
	for _, dev := range sortedKeys(m.submitted) {
		appendf("gles2gpgpud_jobs_submitted_total{device=%q} %d\n", dev, m.submitted[dev])
	}
	appendf("# HELP gles2gpgpud_jobs_rejected_total Jobs refused at admission.\n# TYPE gles2gpgpud_jobs_rejected_total counter\n")
	for _, k := range sortedKeys2(m.rejected) {
		appendf("gles2gpgpud_jobs_rejected_total{device=%q,reason=%q} %d\n", k[0], k[1], m.rejected[k])
	}
	appendf("# HELP gles2gpgpud_jobs_completed_total Jobs finished successfully.\n# TYPE gles2gpgpud_jobs_completed_total counter\n")
	for _, k := range sortedKeys2(m.completed) {
		appendf("gles2gpgpud_jobs_completed_total{device=%q,kernel=%q} %d\n", k[0], k[1], m.completed[k])
	}
	appendf("# HELP gles2gpgpud_jobs_failed_total Jobs that errored during execution.\n# TYPE gles2gpgpud_jobs_failed_total counter\n")
	for _, k := range sortedKeys2(m.failed) {
		appendf("gles2gpgpud_jobs_failed_total{device=%q,kernel=%q} %d\n", k[0], k[1], m.failed[k])
	}
	appendf("# HELP gles2gpgpud_jobs_canceled_total Jobs abandoned by their context.\n# TYPE gles2gpgpud_jobs_canceled_total counter\n")
	for _, dev := range sortedKeys(m.canceled) {
		appendf("gles2gpgpud_jobs_canceled_total{device=%q} %d\n", dev, m.canceled[dev])
	}
	appendf("# HELP gles2gpgpud_queue_depth Jobs waiting in a device queue.\n# TYPE gles2gpgpud_queue_depth gauge\n")
	for _, dev := range sortedKeys(depths) {
		appendf("gles2gpgpud_queue_depth{device=%q} %d\n", dev, depths[dev])
	}
	appendf("# HELP gles2gpgpud_batches_total Batches executed.\n# TYPE gles2gpgpud_batches_total counter\n")
	for _, dev := range sortedKeys(m.batches) {
		appendf("gles2gpgpud_batches_total{device=%q} %d\n", dev, m.batches[dev])
	}
	appendf("# HELP gles2gpgpud_coalesced_batches_total Batches that coalesced two or more compatible jobs.\n# TYPE gles2gpgpud_coalesced_batches_total counter\n")
	for _, dev := range sortedKeys(m.coalesced) {
		appendf("gles2gpgpud_coalesced_batches_total{device=%q} %d\n", dev, m.coalesced[dev])
	}
	appendf("# HELP gles2gpgpud_batched_jobs_total Jobs executed through batches.\n# TYPE gles2gpgpud_batched_jobs_total counter\n")
	for _, dev := range sortedKeys(m.batchJobs) {
		appendf("gles2gpgpud_batched_jobs_total{device=%q} %d\n", dev, m.batchJobs[dev])
	}
	appendf("# HELP gles2gpgpud_engine_coherence_enabled Whether worker engines elide tiles with unchanged inputs across iterations (host-time knob; results are bit-identical either way).\n# TYPE gles2gpgpud_engine_coherence_enabled gauge\n")
	coherence := 0
	if m.coherence {
		coherence = 1
	}
	appendf("gles2gpgpud_engine_coherence_enabled %d\n", coherence)
	appendf("# HELP gles2gpgpud_engine_fusion_enabled Whether the pipeline planner fuses proof-eligible adjacent passes on worker engines (host-time knob; results are bit-identical either way).\n# TYPE gles2gpgpud_engine_fusion_enabled gauge\n")
	fusion := 0
	if m.fusion {
		fusion = 1
	}
	appendf("gles2gpgpud_engine_fusion_enabled %d\n", fusion)
	appendf("# HELP gles2gpgpud_pipeline_stages_total Pipeline stage dispatches executed.\n# TYPE gles2gpgpud_pipeline_stages_total counter\n")
	for _, dev := range sortedKeys(m.pipeStages) {
		appendf("gles2gpgpud_pipeline_stages_total{device=%q} %d\n", dev, m.pipeStages[dev])
	}
	appendf("# HELP gles2gpgpud_pipeline_passes_fused_total Pipeline stage dispatches avoided through proof-gated pass fusion.\n# TYPE gles2gpgpud_pipeline_passes_fused_total counter\n")
	for _, dev := range sortedKeys(m.pipePassesFused) {
		appendf("gles2gpgpud_pipeline_passes_fused_total{device=%q} %d\n", dev, m.pipePassesFused[dev])
	}
	appendf("# HELP gles2gpgpud_pipeline_intermediate_readbacks_elided_total Pipeline intermediates kept resident on-device instead of round-tripping through a host readback.\n# TYPE gles2gpgpud_pipeline_intermediate_readbacks_elided_total counter\n")
	for _, dev := range sortedKeys(m.pipeElided) {
		appendf("gles2gpgpud_pipeline_intermediate_readbacks_elided_total{device=%q} %d\n", dev, m.pipeElided[dev])
	}

	for _, dev := range sortedKeys(gauges) {
		g := gauges[dev]
		appendf("gles2gpgpud_tensor_pool_hits_total{device=%q} %d\n", dev, g.PoolHits)
		appendf("gles2gpgpud_tensor_pool_misses_total{device=%q} %d\n", dev, g.PoolMisses)
		appendf("gles2gpgpud_tensor_pool_evictions_total{device=%q} %d\n", dev, g.PoolEvictions)
		appendf("gles2gpgpud_tensor_pool_released_total{device=%q} %d\n", dev, g.PoolReleased)
		appendf("gles2gpgpud_tensor_pool_live_bytes{device=%q} %d\n", dev, g.PoolLiveBytes)
		hitRate := 0.0
		if g.PoolHits+g.PoolMisses > 0 {
			hitRate = float64(g.PoolHits) / float64(g.PoolHits+g.PoolMisses)
		}
		appendf("gles2gpgpud_tensor_pool_hit_rate{device=%q} %g\n", dev, hitRate)
		appendf("gles2gpgpud_program_cache_hits_total{device=%q} %d\n", dev, g.ProgHits)
		appendf("gles2gpgpud_program_cache_misses_total{device=%q} %d\n", dev, g.ProgMisses)
		appendf("gles2gpgpud_runners_live{device=%q} %d\n", dev, g.RunnersLive)
		appendf("gles2gpgpud_runner_evictions_total{device=%q} %d\n", dev, g.RunnerEvictions)
		appendf("gles2gpgpud_runner_hits_total{device=%q} %d\n", dev, g.RunnerHits)
		appendf("gles2gpgpud_runner_misses_total{device=%q} %d\n", dev, g.RunnerMisses)
		appendf("gles2gpgpud_subimage_uploads_total{device=%q} %d\n", dev, g.SubUploads)
		appendf("gles2gpgpud_tiles_elided_total{device=%q} %d\n", dev, g.TilesElided)
		appendf("gles2gpgpud_tiles_shaded_total{device=%q} %d\n", dev, g.TilesShaded)
		appendf("gles2gpgpud_lane_fallback_draws_total{device=%q} %d\n", dev, g.LaneFallbackDraws)
	}

	appendf("# HELP gles2gpgpud_job_latency_seconds Per-job execution latency; clock=virtual is simulated device time, clock=host is worker wall time.\n# TYPE gles2gpgpud_job_latency_seconds histogram\n")
	keys := make([][3]string, 0, len(m.latency))
	for k := range m.latency {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		for c := 0; c < 3; c++ {
			if keys[i][c] != keys[j][c] {
				return keys[i][c] < keys[j][c]
			}
		}
		return false
	})
	for _, k := range keys {
		h := m.latency[k]
		var cum int64
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			appendf("gles2gpgpud_job_latency_seconds_bucket{device=%q,kernel=%q,clock=%q,le=%q} %d\n",
				k[0], k[1], k[2], fmt.Sprintf("%g", ub), cum)
		}
		appendf("gles2gpgpud_job_latency_seconds_bucket{device=%q,kernel=%q,clock=%q,le=\"+Inf\"} %d\n",
			k[0], k[1], k[2], h.total)
		appendf("gles2gpgpud_job_latency_seconds_sum{device=%q,kernel=%q,clock=%q} %g\n", k[0], k[1], k[2], h.sum)
		appendf("gles2gpgpud_job_latency_seconds_count{device=%q,kernel=%q,clock=%q} %d\n", k[0], k[1], k[2], h.total)
	}

	_, err := w.Write(b)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeys2(m map[[2]string]int64) [][2]string {
	ks := make([][2]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i][0] != ks[j][0] {
			return ks[i][0] < ks[j][0]
		}
		return ks[i][1] < ks[j][1]
	})
	return ks
}
