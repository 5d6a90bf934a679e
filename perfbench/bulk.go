package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"gles2gpgpu/internal/serve"
)

const (
	// bulkRoundS is the nominal host time of one round; a run makes
	// seconds/bulkRoundS rounds (at least two).
	bulkRoundS = 4.0
	// bulkInputs is the number of distinct input seeds per job kind.
	bulkInputs = 2
)

// bulkKinds are serve-bulk's warm jobs, large enough that per-byte costs
// dominate. sgemm is left out: one n=256 job takes seconds.
var bulkKinds = []serve.Params{
	{Device: "vc4", Kernel: "sum", N: 1024},
	{Device: "vc4", Kernel: "saxpy", N: 1024, Alpha: 0.5},
	{Device: "vc4", Pipeline: "sepconv", N: 512},
}

// bulkJob is client c's j-th job of round r: each client walks the kinds
// in its own rotation, so the two clients rarely ask for the same class at
// once.
func bulkJob(seed int64, r, c, j int) serve.Params {
	p := bulkKinds[(c+j)%len(bulkKinds)]
	p.Seed = seed*bulkInputs + int64((r+c)%bulkInputs)
	return p
}

func runServeBulk(ctx context.Context, o runOpts) (*measurement, error) {
	m := &measurement{named: map[string]float64{}}
	var f *fleet
	for i := 0; i < 3; i++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		var tr *tracer
		if i == 2 {
			tr = o.tr
		}
		var err error
		if f, err = startFleet(tr, 1, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		c := newClient(f.target, nil)
		for _, p := range bulkKinds {
			p.Seed = o.seed * bulkInputs
			if out := c.do(ctx, p, 0); out.err != nil {
				c.close()
				f.stop()
				return nil, fmt.Errorf("set-up: warm-up job %s: %w", jobName(p), out.err)
			}
		}
		c.close()
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}
	defer f.stop()

	c := newClient(f.target, o.tr)
	defer c.close()
	rounds := max(2, int(o.seconds/bulkRoundS+0.5))
	var params []serve.Params
	var samples []openSample
	before := f.warmth()
	windowStart := time.Now()
	for r := 0; r < rounds; r++ {
		roundStart := time.Now()
		got := make([][]openSample, connCap)
		base := len(samples)
		var wg sync.WaitGroup
		for cl := 0; cl < connCap; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for j := range bulkKinds {
					p := bulkJob(o.seed, r, cl, j)
					start := time.Now()
					out := c.do(ctx, p, int64(base+cl*len(bulkKinds)+j+1))
					got[cl] = append(got[cl], openSample{latency: time.Since(start), out: out})
				}
			}(cl)
		}
		wg.Wait()
		m.unitS = append(m.unitS, time.Since(roundStart).Seconds())
		for cl := range got {
			for j, s := range got[cl] {
				params = append(params, bulkJob(o.seed, r, cl, j))
				samples = append(samples, s)
			}
		}
	}
	window := time.Since(windowStart)
	after := f.warmth()

	ph := m.phase("closed-loop")
	for i, s := range samples {
		ph.Attempted++
		switch {
		case s.out.shed:
			ph.Shed++
			ph.Failed++
		case s.out.err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", i, s.out.err)
			ph.Failed++
		default:
			m.opMS = append(m.opMS, ms(s.latency))
		}
	}
	m.named["bulk_jobs_per_s"] = float64(len(m.opMS)) / window.Seconds()
	m.named["bulk_p50_ms"] = percentile(m.opMS, 50)

	if err := checkJobs(ctx, o.tr, params, samples, ph, m); err != nil {
		return nil, err
	}
	if o.tr != nil {
		var done []jobOutcome
		for _, s := range samples {
			if s.out.res != nil {
				done = append(done, s.out)
			}
		}
		l := serveLayers(o.tr.closed(), done, "serve.handler")
		warmLayers(l, before, after)
		mergeLayers(l, m.layers)
		m.layers = l
	}
	return m, nil
}
