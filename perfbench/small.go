package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gles2gpgpu/internal/serve"
)

const (
	// smallRate is serve-small's fixed nominal arrival rate, well below
	// the knee of this fleet and client on a two-CPU host, so that a host
	// running a third slower still stays clear of it. Near the knee,
	// queueing multiplies every slowdown of the host: at 200/s, p50 nearly
	// doubled between two runs of the same code.
	smallRate = 100.0
	// smallN and smallKeys shape the jobs: saxpy at n=32 across this many
	// alpha keys, with smallInputs distinct input seeds per key.
	smallN, smallKeys, smallInputs = 32, 8, 4
	// smallRound is the arrival count of one unit of work.
	smallRound = 100
	// smallReplicas is the fleet size behind the router.
	smallReplicas = 2
	// keySequenceSeed draws the key sequence of every run.
	keySequenceSeed = 1
)

// openLoopSchedule draws n Poisson arrivals at rate per second (offsets
// from the start) and the job of each arrival. Arrival times and input
// seeds come from seed. The sequence of alpha keys is the same for every
// seed, so every run makes the same warm-runner hits and misses (5 keys
// share one replica's 4 runner slots) and seeds stay comparable.
func openLoopSchedule(seed int64, rate float64, n int) ([]time.Duration, []serve.Params) {
	rng := rand.New(rand.NewSource(seed))
	keys := rand.New(rand.NewSource(keySequenceSeed))
	due := make([]time.Duration, n)
	params := make([]serve.Params, n)
	var at float64
	for i := range due {
		at += rng.ExpFloat64() / rate
		due[i] = time.Duration(at * float64(time.Second))
		k := keys.Intn(smallKeys)
		params[i] = serve.Params{
			Device: "vc4", Kernel: "saxpy", N: smallN,
			Alpha: float64(k+1) / float64(smallKeys+1),
			Seed:  seed*smallInputs + int64(rng.Intn(smallInputs)),
		}
	}
	return due, params
}

// openSample is one arrival's outcome: latency from its due time, and how
// late it was sent.
type openSample struct {
	latency, lag time.Duration
	done         time.Duration // completion, from the start
	out          jobOutcome
}

// openLoop sends arrival i at start+due[i] from a fixed set of workers.
// Each arrival is timed from its due time, so a stall that delays later
// sends counts against them; lag is how late each send was.
func openLoop(ctx context.Context, due []time.Duration, workers int, send func(i int) jobOutcome) []openSample {
	out := make([]openSample, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := time.Until(start.Add(due[i])); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				sent := time.Since(start)
				o := send(i)
				done := time.Since(start)
				out[i] = openSample{latency: done - due[i], lag: sent - due[i], done: done, out: o}
			}
		}()
	}
	wg.Wait()
	return out
}

func runServeSmall(ctx context.Context, o runOpts) (*measurement, error) {
	m := &measurement{named: map[string]float64{}}
	n := max(smallRound, int(o.seconds*smallRate+0.5)/smallRound*smallRound)
	due, params := openLoopSchedule(o.seed, smallRate, n)

	var f *fleet
	const setups = 5
	for i := 0; i < setups; i++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		var tr *tracer
		if i == setups-1 {
			tr = o.tr
		}
		var err error
		if f, err = startFleet(tr, smallReplicas, true); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := warmKeys(ctx, f, o.seed); err != nil {
			f.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}
	defer f.stop()

	c := newClient(f.target, o.tr)
	defer c.close()
	before := f.warmth()
	retries0 := f.router.Retries()
	routed0 := f.router.RoutedTotals()
	samples := openLoop(ctx, due, connCap, func(i int) jobOutcome {
		return c.do(ctx, params[i], int64(i+1))
	})
	after := f.warmth()

	ph := m.phase("open-loop")
	var lags []float64
	for i, s := range samples {
		ph.Attempted++
		lags = append(lags, ms(s.lag))
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
	for r := 0; r+smallRound <= len(samples); r += smallRound {
		last := time.Duration(0)
		for _, s := range samples[r : r+smallRound] {
			last = max(last, s.done)
		}
		m.unitS = append(m.unitS, (last - due[r]).Seconds())
	}
	m.named["small_p50_ms"], m.named["small_p99_ms"] = percentile(m.opMS, 50), percentile(m.opMS, 99)
	m.named["gen_lag_p50_ms"], m.named["gen_lag_max_ms"] = percentile(lags, 50), percentile(lags, 100)
	m.named["offered_rate_per_s"] = smallRate

	// Output check, outside the timed window.
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
		l := serveLayers(o.tr.closed(), done, "shard.handler")
		l["gen.lag_ms"] = mean(lags)
		warmLayers(l, before, after)
		l["shard.retries"] = float64(f.router.Retries() - retries0)
		routed := f.router.RoutedTotals()
		for i, name := range f.names {
			l[fmt.Sprintf("shard.routed_r%d", i)] = float64(routed[name] - routed0[name])
		}
		mergeLayers(l, m.layers)
		m.layers = l
	}
	return m, nil
}

// warmKeys runs every job class once per input seed through the fleet, so
// warm runners exist and the kernels are compiled before timing.
func warmKeys(ctx context.Context, f *fleet, seed int64) error {
	c := newClient(f.target, nil)
	defer c.close()
	for k := 0; k < smallKeys; k++ {
		p := serve.Params{Device: "vc4", Kernel: "saxpy", N: smallN, Alpha: float64(k+1) / float64(smallKeys+1), Seed: seed * smallInputs}
		if out := c.do(ctx, p, 0); out.err != nil {
			return fmt.Errorf("warm-up job %s: %w", jobName(p), out.err)
		}
	}
	return nil
}

// mergeLayers copies the entries of src that dst lacks.
func mergeLayers(dst, src map[string]float64) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}
