package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 samples beyond p99.9
		{9999, 99, true},    // 9.999 beyond p99.9: one rung down
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeReadsTailWithTenBeyond(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	s := summarize(ms)
	if s.TailP != 99 || s.Tail != 990 || s.Beyond != 10 || s.P50 != 500 {
		t.Fatalf("summarize(1..1000) = %+v; want p99 = 990 with 10 beyond, p50 = 500", s)
	}
	few := summarize([]float64{3, 1, 2})
	if few.TailP != 50 || few.Tail != few.P50 || few.P50 != 2 {
		t.Fatalf("summarize of 3 samples = %+v; want the median as tail", few)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	slow := func(int) jobOutcome {
		time.Sleep(service)
		return jobOutcome{}
	}
	// All four arrivals are due at once and one worker serves them in turn:
	// arrival k waits for k services before it is sent, and its latency,
	// counted from the due time, includes that wait.
	got := openLoop(context.Background(), make([]time.Duration, 4), 1, slow)
	for k, s := range got {
		minLag := time.Duration(k) * service
		if s.lag < minLag || s.latency < minLag+service {
			t.Errorf("arrival %d: lag %v, latency %v; want at least %v and %v", k, s.lag, s.latency, minLag, minLag+service)
		}
		if s.latency-s.lag < service {
			t.Errorf("arrival %d: latency %v minus lag %v is below the service time", k, s.latency, s.lag)
		}
	}
	// Arrivals spaced wider than the service time are sent on time.
	due := []time.Duration{0, 60 * time.Millisecond, 120 * time.Millisecond}
	for k, s := range openLoop(context.Background(), due, 1, slow) {
		if s.lag > 15*time.Millisecond {
			t.Errorf("spaced arrival %d sent %v late", k, s.lag)
		}
		if s.done < due[k]+service {
			t.Errorf("spaced arrival %d completed at %v, before its due time plus service", k, s.done)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "a", Start: at(20), End: at(50)},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "b", Start: at(90), End: at(120)}, // ends after its parent
		{ID: 5, Parent: 3, Name: "c", Start: at(25), End: at(35)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: at(50), 2: at(20), 3: at(20), 4: at(30), 5: at(10)}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v; want %v", self, want)
	}
	rows := map[string]layerRow{}
	for _, r := range layerTable(spans) {
		rows[r.Name] = r
	}
	if r := rows["a"]; r.Calls != 2 || r.TotalMS != 50 || r.SelfMS != 40 || r.MeanMS != 25 {
		t.Fatalf("layer a = %+v; want 2 calls, 50 ms total, 40 ms self, 25 ms mean", r)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	if err := tr.do("x", 0, 0, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("nil tracer: do ran=%v err=%v", ran, err)
	}
	if tr.closed() != nil {
		t.Fatal("nil tracer returned spans")
	}
	live := newTracer()
	id := live.begin("outer", 0, 7)
	_ = live.do("inner", id, 7, func() error { return nil })
	open := live.begin("unfinished", id, 7)
	live.end(id)
	spans := live.closed()
	if len(spans) != 2 || spans[0].Name != "outer" || spans[1].Parent != id || spans[1].Op != 7 || open == 0 {
		t.Fatalf("spans = %+v; want outer and inner, without the unfinished one", spans)
	}
}

func TestSeedReproducesScheduleAndInputs(t *testing.T) {
	d1, p1 := openLoopSchedule(7, smallRate, 500)
	d2, p2 := openLoopSchedule(7, smallRate, 500)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("the same seed drew a different schedule")
	}
	d3, p3 := openLoopSchedule(8, smallRate, 500)
	if reflect.DeepEqual(d1, d3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("another seed drew the same schedule")
	}
	for i := 1; i < len(d1); i++ {
		if d1[i] < d1[i-1] {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	// The mean gap matches the nominal rate within a few percent.
	if rate := float64(len(d1)) / d1[len(d1)-1].Seconds(); rate < 0.85*smallRate || rate > 1.15*smallRate {
		t.Fatalf("schedule rate %.1f/s, nominal %.0f/s", rate, smallRate)
	}
	// Job inputs: materialised inputs, bulk jobs, images and plates.
	a1, _ := p1[3].Inputs()
	a2, _ := p2[3].Inputs()
	if !reflect.DeepEqual(a1.Data, a2.Data) {
		t.Fatal("the same Params materialised different inputs")
	}
	if !reflect.DeepEqual(bulkJob(5, 2, 1, 0), bulkJob(5, 2, 1, 0)) || reflect.DeepEqual(bulkJob(5, 0, 0, 0), bulkJob(6, 0, 0, 0)) {
		t.Fatal("bulk jobs are not a function of the seed")
	}
	if !reflect.DeepEqual(unitMatrix(16, 3).Data, unitMatrix(16, 3).Data) || reflect.DeepEqual(unitMatrix(16, 3).Data, unitMatrix(16, 4).Data) {
		t.Fatal("seeded matrices are not a function of the seed")
	}
	if !reflect.DeepEqual(plate(8, 5).Data, plate(8, 5).Data) || reflect.DeepEqual(plate(8, 0).Data, plate(8, 1).Data) {
		t.Fatal("plates are not a function of the seed")
	}
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, ours)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], perfbench %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
