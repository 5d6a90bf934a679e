package main

// perLayer lists the per-layer metrics a traced run reports, with units.
// Times ending in _ms are the mean per call of the named boundary in the
// traced measurement; counts are totals over it. A layer a workload does
// not cross reads 0 there (BENCHMARK.json says which workload moves which
// metric).
var perLayer = []struct{ name, unit string }{
	// core: engine construction and kernel compiles (glsl + shader).
	{"core.new_engine_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.kernels_compiled", "count"},
	// core/gles: functional execution.
	{"core.run_functional_ms", "ms"},
	{"gles.frags_shaded", "count"},
	{"gles.mfrag_per_host_s", "Mfrag/s"},
	// gpu: timing-only replay at the paper's size.
	{"gpu.replay_ms", "ms"},
	{"gpu.host_ns_per_virtual_us", "ns/us"},
	// gles: tile coherence and lane fallbacks.
	{"gles.tiles_elided", "count"},
	{"gles.tiles_shaded", "count"},
	{"gles.elide_ratio", "ratio"},
	{"gles.lane_fallback_draws", "count"},
	// pipeline: planning and graph runs.
	{"pipeline.compile_ms", "ms"},
	{"pipeline.run_ms", "ms"},
	{"pipeline.passes_fused", "count"},
	{"pipeline.readbacks_elided", "count"},
	// codec and tensor transfers.
	{"codec.encode_ns_per_texel", "ns"},
	{"codec.decode_ns_per_texel", "ns"},
	{"core.upload_ms", "ms"},
	{"core.read_ms", "ms"},
	// serve: the daemon.
	{"serve.handler_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.batch_size_mean", "jobs"},
	{"serve.warm_hit_ratio", "ratio"},
	{"serve.pool_hit_ratio", "ratio"},
	// shard: the router.
	{"shard.hop_ms", "ms"},
	{"shard.retries", "count"},
	{"shard.routed_r0", "count"},
	{"shard.routed_r1", "count"},
	{"shard.warm_hits_r0", "count"},
	{"shard.warm_hits_r1", "count"},
	// client and load generator.
	{"client.wire_ms", "ms"},
	{"client.decode_ms", "ms"},
	{"client.bytes_per_job", "bytes"},
	{"gen.lag_ms", "ms"},
	// The tracer itself.
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}
