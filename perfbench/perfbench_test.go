package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/mar-hbo/hbo/internal/obs"
)

// benchmarkSpec is the part of BENCHMARK.json the result lines must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinySizes keeps each workload to a second or two.
var tinySizes = map[string]int{"warm-bo": 1, "session-churn": 1, "lod-fetch": 2}

func tinyRun(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 1, trace: trace, outDir: t.TempDir(), commit: "test", size: tinySizes[workload], setups: 2}
	rep, err := bench(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// checkResult asserts the result line passed its output checks and carries
// exactly the named metrics, each with the declared unit.
func checkResult(t *testing.T, workload string, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	r := rep.Result
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d failures=%v", workload, r.Correct, r.Attempted, r.Failed, rep.Report.Failures)
	}
	if got := rep.Report.EndToEnd["failed_ratio"]; got.Value != 0 || got.Unit == "" {
		t.Errorf("%s: failed_ratio %+v, want 0 with a unit", workload, got)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics on the result line, BENCHMARK.json names %d", workload, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v (present %v), want unit %q", workload, m.Name, got, ok, m.Unit)
		}
	}
}

func TestTinyRuns(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			first := tinyRun(t, wl.Name, false)
			checkResult(t, wl.Name, first, spec.EndToEnd)
			for name, m := range first.Result.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			traced := tinyRun(t, wl.Name, true)
			checkResult(t, wl.Name, traced, spec.PerLayer)
			// The traced pass compared the service's own counters with the
			// script (a mismatch fails the run, which checkResult catches).
			if len(traced.Report.CheckedCounters) == 0 {
				t.Errorf("%s: the traced pass checked no service counters", wl.Name)
			}
			for name, v := range traced.Report.CheckedCounters {
				if v == 0 {
					t.Errorf("%s: checked counter %s is 0; the check proves nothing", wl.Name, name)
				}
			}
			// The property report is a function of the seed alone.
			if len(first.Report.Properties) == 0 || !reflect.DeepEqual(first.Report.Properties, traced.Report.Properties) {
				t.Errorf("properties differ across runs with one seed:\n%+v\n%+v", first.Report.Properties, traced.Report.Properties)
			}
		})
	}
}

func TestCheckCounters(t *testing.T) {
	snap := obs.Snapshot{Counters: map[string]uint64{"sessiond.mesh_cache_hits": 5, "sessiond.mesh_cache_misses": 3}}
	if f := checkCounters(map[string]uint64{"sessiond.mesh_cache_hits": 5, "sessiond.mesh_cache_misses": 3}, snap); len(f) != 0 {
		t.Errorf("matching counters reported %v", f)
	}
	if f := checkCounters(map[string]uint64{"sessiond.mesh_cache_hits": 6, "sessiond.mesh_cache_misses": 3}, snap); len(f) != 1 {
		t.Errorf("one mismatched counter reported %d failures, want 1", len(f))
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q, v, beyond := tail(xs)
	if q != 0.99 || v != 990 || beyond != 10 {
		t.Errorf("tail of 1..1000 = p%v %v with %d beyond, want p99 990 with 10", 100*q, v, beyond)
	}
	// p95 of 199 samples has only 9 beyond it, so the tail drops to p90.
	if q, v, beyond := tail(xs[:199]); q != 0.9 || v != 180 || beyond != 19 {
		t.Errorf("tail of 1..199 = p%v %v with %d beyond, want p90 180 with 19", 100*q, v, beyond)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Op: 256, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.suggest", Op: 256, Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "client.observe", Op: 256, Start: 50, End: 90},
		{ID: 4, Parent: 2, Name: "bo.next", Op: 256, Start: 200, End: 300, Replay: true},
	}
	ix := link(spans)
	if got := ix.children(0); len(got) != 2 {
		t.Errorf("op has %d children, want 2", len(got))
	}
	if got := ix.selfTime(0); got != 20 {
		t.Errorf("op self time %d, want 20 (children cover 10..90)", got)
	}
	if got := ix.selfTime(1); got != 50 {
		t.Errorf("suggest self time %d, want 50 (replay children carry none)", got)
	}
}
