package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/pipeline"
	"gles2gpgpu/internal/serve"
)

// jobName labels a job class for messages.
func jobName(p serve.Params) string {
	if p.Pipeline != "" {
		return fmt.Sprintf("%s/n=%d", p.Pipeline, p.N)
	}
	return fmt.Sprintf("%s/n=%d/a=%g", p.Kernel, p.N, p.Alpha)
}

// checkJobs compares every completed job's output bits with a direct run
// of the same Params, computed once per distinct Params after the timed
// window. A mismatch counts as a failed operation of ph. When traced, the
// direct runs also give the core, pipeline and codec per-layer metrics.
func checkJobs(ctx context.Context, tr *tracer, params []serve.Params, samples []openSample, ph *phase, m *measurement) error {
	want := map[string]uint64{}
	encodeMS := map[string]float64{}
	var layers map[string]float64
	if tr != nil {
		layers = map[string]float64{}
	}
	for i := range samples {
		s := &samples[i]
		if s.out.res == nil {
			continue
		}
		key := fmt.Sprintf("%s/seed=%d", jobName(params[i]), params[i].Seed)
		sum, ok := want[key]
		if !ok {
			out, err := directRun(ctx, tr, params[i], layers)
			if err != nil {
				return fmt.Errorf("direct run of %s: %w", key, err)
			}
			sum = floatsHash(out)
			want[key] = sum
			if tr != nil {
				// The daemon's JSON encoding of this job's Result.
				res := *s.out.res
				res.Out = out
				start := time.Now()
				if _, err := json.Marshal(&res); err == nil {
					encodeMS[key] = ms(time.Since(start))
				}
			}
		}
		s.out.encodeMS = encodeMS[key]
		if s.out.sum != sum {
			fmt.Fprintf(os.Stderr, "perfbench: job %d (%s): output differs from a direct run\n", i, key)
			ph.Failed++
		}
	}
	m.checks = append(m.checks, fmt.Sprintf("every job's output bit-identical to a direct core/pipeline run (%d distinct jobs)", len(want)))
	if tr != nil {
		spans := tr.closed()
		for _, name := range []string{"core.new_engine", "core.compile", "core.upload", "core.read", "core.run_functional", "pipeline.compile", "pipeline.run"} {
			layers[name+"_ms"] = meanDur(spans, name)
		}
		layers["core.kernels_compiled"] = float64(countSpans(spans, "core.compile"))
		m.layers = layers
	}
	return nil
}

// directRun computes a job's output on a fresh engine configured like a
// daemon worker's, through core's runners or a compiled pipeline plan.
// With a tracer, each layer call gets a span and layers receives the codec
// cost per texel of the job's input.
func directRun(ctx context.Context, tr *tracer, p serve.Params, layers map[string]float64) ([]float64, error) {
	prof, err := device.ByName(p.Device)
	if err != nil {
		return nil, err
	}
	var e *core.Engine
	if err := tr.do("core.new_engine", 0, 0, func() error {
		e, err = core.NewEngine(core.Config{
			Device: prof, Width: p.N, Height: p.N,
			Swap: core.SwapNone, Target: core.TargetTexture, UseVBO: true,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if tr != nil {
		measureCodec(p, layers)
	}
	if p.Pipeline != "" {
		if p.Pipeline != "sepconv" {
			return nil, fmt.Errorf("no direct run for pipeline %q", p.Pipeline)
		}
		g := pipeline.SepConvGraph(p.N, p.N, kernels.DefaultOptions)
		var plan *pipeline.Plan
		if err := tr.do("pipeline.compile", 0, 0, func() error {
			plan, err = pipeline.Compile(e, g)
			return err
		}); err != nil {
			return nil, err
		}
		defer plan.Release()
		src := e.NewTensor(p.N, p.N, codec.Unit)
		if err := tr.do("core.upload", 0, 0, func() error { return src.Upload(p.Source(), true) }); err != nil {
			return nil, err
		}
		if err := tr.do("pipeline.run", 0, 0, func() error {
			_, err := plan.Run(map[string]*core.Tensor{pipeline.SrcInput: src})
			return err
		}); err != nil {
			return nil, err
		}
		e.Finish()
		var out *codec.Matrix
		err := tr.do("core.read", 0, 0, func() error {
			out, err = plan.Output(g.Outputs[len(g.Outputs)-1]).Read()
			return err
		})
		if err != nil {
			return nil, err
		}
		return out.Data, nil
	}
	a, b := p.Inputs()
	var r core.Runner
	if err := tr.do("core.compile", 0, 0, func() error {
		switch p.Kernel {
		case "sum":
			r, err = core.NewSum(e, a, b)
		case "saxpy":
			r, err = core.NewSaxpy(e, float32(p.Alpha), a, b)
		default:
			err = fmt.Errorf("no direct run for kernel %q", p.Kernel)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("core.run_functional", 0, 0, func() error { return r.RunOnce(ctx) }); err != nil {
		return nil, err
	}
	e.Finish()
	var out *codec.Matrix
	if err := tr.do("core.read", 0, 0, func() error {
		out, err = r.Result()
		return err
	}); err != nil {
		return nil, err
	}
	return out.Data, nil
}

// measureCodec times the 32-bit texel encoding and decoding of a job's
// first input, per texel, keeping the lowest figure seen per run.
func measureCodec(p serve.Params, layers map[string]float64) {
	a, _ := p.Inputs()
	texels := float64(len(a.Data))
	start := time.Now()
	enc := a.EncodeTexture(codec.Depth32)
	encNS := float64(time.Since(start).Nanoseconds()) / texels
	back := codec.NewMatrix(a.Rows, a.Cols)
	start = time.Now()
	if err := back.DecodeTexture(codec.Depth32, enc); err != nil {
		return
	}
	decNS := float64(time.Since(start).Nanoseconds()) / texels
	for name, v := range map[string]float64{"codec.encode_ns_per_texel": encNS, "codec.decode_ns_per_texel": decNS} {
		if old, ok := layers[name]; !ok || v < old {
			layers[name] = v
		}
	}
}
