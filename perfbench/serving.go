package main

// serve-small and serve-bulk: gles2gpgpud schedulers and the shard router
// running in-process behind real loopback HTTP listeners, driven by one
// client with at most connCap connections and worker goroutines.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gles2gpgpu/internal/serve"
	"gles2gpgpu/internal/shard"
)

// Trace propagation headers: the client and the router stamp the operation
// and the caller's span on every request so server spans join the tree.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
)

type ctxKey struct{}

// spanCtx is the (operation, span) pair a traced handler passes down.
type spanCtx struct{ op, span int64 }

// traceHandler wraps h's job requests in a span named name, parented to
// the caller's span from the request headers. With a nil tracer it
// returns h.
func traceHandler(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs" {
			h.ServeHTTP(w, r) // health probes and stats are not job spans
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		id := tr.begin(name, parent, op)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanCtx{op, id})))
		tr.end(id)
	})
}

// tagTransport copies the span context of an outgoing request's context
// into its headers, so the router's forwards carry them to the replicas.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if sc, ok := r.Context().Value(ctxKey{}).(spanCtx); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrOp, strconv.FormatInt(sc.op, 10))
		r.Header.Set(hdrParent, strconv.FormatInt(sc.span, 10))
	}
	return t.base.RoundTrip(r)
}

// server is one HTTP listener serving a handler.
type server struct {
	url string
	srv *http.Server
	l   net.Listener
	wg  sync.WaitGroup
}

func listen(h http.Handler) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + l.Addr().String(), l: l, srv: &http.Server{Handler: h}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(l) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	s.wg.Wait()
}

// fleet is the servers of one serving workload: replicas, and optionally a
// router in front of them. Replicas join the ring under fixed names
// ("http://replica-0", ...) that the router's transport resolves to their
// listeners, so key placement does not depend on ephemeral ports.
type fleet struct {
	scheds    []*serve.Scheduler
	replicas  []*server
	names     []string
	router    *shard.Router
	front     *server
	transport *http.Transport
	target    string // the endpoint clients post jobs to
}

func startFleet(tr *tracer, nReplicas int, routed bool) (*fleet, error) {
	f := &fleet{}
	addrs := map[string]string{}
	for i := 0; i < nReplicas; i++ {
		s, err := serve.New(serve.Config{Devices: []string{"vc4"}})
		if err != nil {
			f.stop()
			return nil, err
		}
		s.Start()
		f.scheds = append(f.scheds, s)
		srv, err := listen(traceHandler(tr, "serve.handler", serve.Handler(s)))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, srv)
		name := fmt.Sprintf("replica-%d", i)
		f.names = append(f.names, "http://"+name)
		addrs[name+":80"] = srv.l.Addr().String()
	}
	f.target = f.replicas[0].url
	if !routed {
		return f, nil
	}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	f.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 2 * connCap,
	}
	rt, err := shard.NewRouter(shard.Config{
		Replicas: f.names,
		Policy:   shard.PolicyAffinity,
		HTTP:     &http.Client{Transport: tagTransport{f.transport}},
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	rt.Start()
	f.router = rt
	front, err := listen(traceHandler(tr, "shard.handler", shard.Handler(rt)))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.front = front
	f.target = front.url
	return f, nil
}

// stop shuts every server down and waits for their goroutines.
func (f *fleet) stop() {
	if f.front != nil {
		f.front.close()
	}
	if f.router != nil {
		f.router.Close()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, r := range f.replicas {
		r.close()
	}
	for _, s := range f.scheds {
		s.Stop()
	}
}

// warmth is a snapshot of the replicas' warm-runner and tensor-pool
// counters, summed and per replica.
type warmth struct {
	hits, misses, poolHits, poolMisses int64
	perReplica                         []int64
}

func (f *fleet) warmth() warmth {
	var w warmth
	for _, s := range f.scheds {
		var h int64
		for _, d := range s.Metrics().Stats().Devices {
			h += d.RunnerHits
			w.misses += d.RunnerMisses
			w.poolHits += d.PoolHits
			w.poolMisses += d.PoolMisses
		}
		w.hits += h
		w.perReplica = append(w.perReplica, h)
	}
	return w
}

// warmLayers fills the warmth ratios and per-replica warm hits of the
// window between two snapshots.
func warmLayers(l map[string]float64, before, after warmth) {
	if d := (after.hits - before.hits) + (after.misses - before.misses); d > 0 {
		l["serve.warm_hit_ratio"] = float64(after.hits-before.hits) / float64(d)
	}
	if d := (after.poolHits - before.poolHits) + (after.poolMisses - before.poolMisses); d > 0 {
		l["serve.pool_hit_ratio"] = float64(after.poolHits-before.poolHits) / float64(d)
	}
	for i := range after.perReplica {
		l[fmt.Sprintf("shard.warm_hits_r%d", i)] = float64(after.perReplica[i] - before.perReplica[i])
	}
}

// client posts jobs over its own connection pool of at most connCap
// connections.
type client struct {
	target string
	http   *http.Client
	tr     *tracer
}

func newClient(target string, tr *tracer) *client {
	return &client{target: target, tr: tr, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: connCap, MaxIdleConnsPerHost: connCap,
	}}}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	res      *serve.Result
	sum      uint64 // hash of the output bits
	bytes    int
	shed     bool
	decodeMS float64
	encodeMS float64 // the daemon's response encoding, re-timed after the window (traced runs only)
	err      error
}

var errShed = errors.New("shed (429)")

// do posts one job. op identifies it in the trace; the client span is the
// root of the job's span tree.
func (c *client) do(ctx context.Context, p serve.Params, op int64) jobOutcome {
	var out jobOutcome
	body, err := json.Marshal(p)
	if err != nil {
		return jobOutcome{err: err}
	}
	// The client span covers the round trip up to the last response byte;
	// decoding the Result is timed separately.
	id := c.tr.begin("client.job", 0, op)
	ended := false
	end := func() {
		if !ended {
			c.tr.end(id)
			ended = true
		}
	}
	defer end()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.target+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jobOutcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tr != nil {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(id, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return jobOutcome{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end()
	if err != nil {
		return jobOutcome{err: err}
	}
	out.bytes = len(data)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		out.shed, out.err = true, errShed
		return out
	default:
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return out
	}
	var res serve.Result
	start := time.Now()
	if err := json.Unmarshal(data, &res); err != nil {
		out.err = err
		return out
	}
	out.decodeMS = ms(time.Since(start))
	out.sum = floatsHash(res.Out)
	res.Out = nil // keep the hash, not the matrix
	out.res = &res
	return out
}

// floatsHash folds the bit patterns of xs into an FNV-1a hash.
func floatsHash(xs []float64) uint64 {
	const prime = 1099511628211
	sum := fnvBasis
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			sum = (sum ^ (b & 0xff)) * prime
			b >>= 8
		}
	}
	return sum
}

// serveLayers derives the per-layer metrics of a traced serving run from
// its spans and the jobs it completed. outermost is the span name of the
// first server hop.
func serveLayers(spans []span, jobs []jobOutcome, outermost string) map[string]float64 {
	l := map[string]float64{}
	kids := map[int64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var wire, hop []float64
	for _, s := range spans {
		switch s.Name {
		case "client.job":
			for _, k := range kids[s.ID] {
				if k.Name == outermost {
					wire = append(wire, ms(s.dur()-k.dur()))
				}
			}
		case "shard.handler":
			for _, k := range kids[s.ID] {
				if k.Name == "serve.handler" {
					hop = append(hop, ms(s.dur()-k.dur()))
				}
			}
		}
	}
	l["client.wire_ms"], l["shard.hop_ms"] = mean(wire), mean(hop)
	l["serve.handler_ms"] = meanDur(spans, "serve.handler")
	var engine, decode, encode, batch, size []float64
	for _, j := range jobs {
		if j.res == nil {
			continue
		}
		engine = append(engine, float64(j.res.HostNanos)/1e6)
		decode = append(decode, j.decodeMS)
		batch = append(batch, float64(j.res.BatchSize))
		size = append(size, float64(j.bytes))
		encode = append(encode, j.encodeMS)
	}
	l["serve.engine_ms"], l["client.decode_ms"], l["serve.encode_ms"] = mean(engine), mean(decode), mean(encode)
	l["serve.queue_ms"] = l["serve.handler_ms"] - l["serve.engine_ms"] - l["serve.encode_ms"]
	l["serve.batch_size_mean"], l["client.bytes_per_job"] = mean(batch), mean(size)
	return l
}
