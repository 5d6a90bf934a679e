// Command perfbench is gles2gpgpu's fixed performance benchmark: four
// workloads that together cover every host layer of the simulator and its
// service, one result schema, and a traced mode that attributes host time
// to the layer each call crosses.
//
//	perfbench --workload paper-figures --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-figures, iterative-graphs, serve-small, serve-bulk.
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}. The full result document
// (environment stamp, per-phase counts, the descriptively named metrics
// and, when traced, the per-layer table) goes to standard error and to
// .bench_build/perfbench/. Run it through perfbench/run.sh, which builds
// this package from the checkout first; LEDGER.md describes the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// outDir receives result documents and span files, inside the checkout.
const outDir = ".bench_build/perfbench"

// goldenPath is the recorded default glesbench stdout, relative to the
// checkout root.
const goldenPath = "glesbench_output.txt"

// connCap is the client-side connection and worker-goroutine cap of every
// workload: one per CPU.
var connCap = runtime.NumCPU()

// runOpts is what one measurement of a workload receives.
type runOpts struct {
	seed    int64
	seconds float64
	tr      *tracer // nil when untraced
}

// phase counts the operations of one part of a run.
type phase struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Shed      int    `json:"shed"`
}

// measurement is what a workload reports for one run.
type measurement struct {
	// setupS holds one entry per repeated set-up.
	setupS []float64
	// unitS holds the wall time of each fixed unit of work (a figure set,
	// a pass over the loops and graphs, a round of jobs).
	unitS []float64
	// opMS holds the latency of each operation (a figure, a loop or
	// graph, a job).
	opMS   []float64
	phases []phase
	// named are the workload's metrics under their descriptive names.
	named map[string]float64
	// layers are the per-layer metrics; filled only when traced.
	layers map[string]float64
	// checks lists the output checks that ran, for the document.
	checks []string
}

func (m *measurement) phase(name string) *phase {
	for i := range m.phases {
		if m.phases[i].Name == name {
			return &m.phases[i]
		}
	}
	m.phases = append(m.phases, phase{Name: name})
	return &m.phases[len(m.phases)-1]
}

func (m *measurement) totals() (attempted, failed int) {
	for _, p := range m.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return
}

type workload struct {
	name string
	run  func(ctx context.Context, o runOpts) (*measurement, error)
}

var workloads = []workload{
	{"paper-figures", runFigures},
	{"iterative-graphs", runIterative},
	{"serve-small", runServeSmall},
	{"serve-bulk", runServeBulk},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics of the result line, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_s", "s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// e2e derives the end-to-end metrics of a measurement. Peak RSS is the
// process high-water mark at the time of the call. The latency tail is
// reported in the result document only: on a shared host it moves by a
// third or more between runs of the same code, too far to bound.
func e2e(m *measurement) map[string]float64 {
	return map[string]float64{
		"setup_s":     median(m.setupS),
		"host_s":      median(m.unitS),
		"p50_ms":      percentile(m.opMS, 50),
		"peak_rss_mb": peakRSSMB(),
	}
}

// document is the full result document.
type document struct {
	Schema     string             `json:"schema"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NProc      int                `json:"nproc"`
	Commit     string             `json:"commit"`
	ConnCap    int                `json:"conn_cap"`
	Phases     []phase            `json:"phases"`
	Latency    latencySummary     `json:"latency"`
	UnitS      []float64          `json:"unit_s"`
	Metrics    map[string]metric  `json:"metrics"`
	Named      map[string]float64 `json:"named"`
	Checks     []string           `json:"checks"`
	Correct    bool               `json:"correct"`
	// Traced runs only.
	Layers        map[string]float64 `json:"layers,omitempty"`
	LayerTable    []layerRow         `json:"layer_table,omitempty"`
	UntracedE2E   map[string]float64 `json:"untraced_e2e,omitempty"`
	TracedE2E     map[string]float64 `json:"traced_e2e,omitempty"`
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
	SpanFile      string             `json:"span_file,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "paper-figures, iterative-graphs, serve-small or serve-bulk")
	seed := flag.Int64("seed", 1, "workload seed; inputs are a pure function of it")
	seconds := flag.Float64("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1: also run a traced measurement and report per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// Every workload checks its outputs against files of the checkout;
	// refuse early when they are not there.
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("not run from a gles2gpgpu checkout: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	doc := document{
		Schema: "gles2gpgpu.perfbench/1", Workload: name, Seed: seed, Seconds: seconds,
		Traced: traced, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Commit: commit(), ConnCap: connCap,
	}

	var m *measurement
	var err error
	if !traced {
		m, err = w.run(ctx, runOpts{seed: seed, seconds: seconds})
		if err != nil {
			return err
		}
	} else {
		// End-to-end figures always come from an untraced measurement;
		// the traced one that follows gives the per-layer numbers, and
		// the difference between the two is the tracing overhead.
		half := seconds / 2
		plain, err := w.run(ctx, runOpts{seed: seed, seconds: half})
		if err != nil {
			return err
		}
		tr := newTracer()
		m, err = w.run(ctx, runOpts{seed: seed, seconds: half, tr: tr})
		if err != nil {
			return err
		}
		if m.layers == nil {
			m.layers = map[string]float64{}
		}
		for _, p := range plain.phases {
			p.Name = "untraced/" + p.Name
			m.phases = append(m.phases, p)
		}
		doc.UntracedE2E, doc.TracedE2E = e2e(plain), e2e(m)
		doc.TraceOverhead = map[string]float64{}
		for k, v := range doc.TracedE2E {
			if k != "peak_rss_mb" {
				doc.TraceOverhead[k] = v - doc.UntracedE2E[k]
			}
		}
		if u := doc.UntracedE2E["host_s"]; u > 0 {
			m.layers["trace.overhead_pct"] = 100 * doc.TraceOverhead["host_s"] / u
		}
		spans := tr.closed()
		m.layers["trace.spans"] = float64(len(spans))
		doc.LayerTable = layerTable(spans)
		doc.Layers = m.layers
		doc.SpanFile = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))
		if err := writeSpans(doc.SpanFile, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s per-layer self times (traced half, %d spans):\n", name, len(spans))
		writeLayerTable(os.Stderr, doc.LayerTable)
		// Report the untraced measurement's end-to-end figures below.
		m.setupS, m.unitS, m.opMS, m.named = plain.setupS, plain.unitS, plain.opMS, plain.named
	}

	attempted, failed := m.totals()
	doc.Phases = m.phases
	doc.Latency = summarize(m.opMS)
	doc.UnitS = m.unitS
	doc.Named = m.named
	doc.Checks = m.checks
	doc.Correct = failed == 0 && attempted > 0
	doc.Metrics = map[string]metric{}
	for k, v := range e2e(m) {
		doc.Metrics[k] = metric{Value: v, Unit: unitOf(k)}
	}

	res := result{Correct: doc.Correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		res.Metrics = doc.Metrics
	} else {
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{Value: m.layers[l.name], Unit: l.unit}
		}
	}
	if err := writeDocument(doc); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// writeDocument prints the result document to standard error and saves it.
func writeDocument(doc document) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s\n", data)
	kind := "e2e"
	if doc.Traced {
		kind = "trace"
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.%s.json", doc.Workload, doc.Seed, kind))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit names the checked-out commit from .git when there is one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// deadline turns a run length into a stop time.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
