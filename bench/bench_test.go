package main

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmall runs every workload end to end at a reduced size (128
// px, 8 tiles per side, a 1 s window), traced, with the oracle, and then
// compares the results file against itself.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bins, err := buildServers(root, filepath.Join(dir, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{
		seed: 7, window: time.Second, warmup: 200 * time.Millisecond,
		setups: 2, sampleN: 5, traced: 3, size: 128, tiles: 8,
		bins: bins, tmp: dir,
	}
	file := &resultsFile{Fingerprint: takeFingerprint(root, cfg.seed, 1)}
	wantHits := map[string]float64{"cold-upload": 0, "hot-scenes": 1, "assign-hot": 1}
	for _, w := range workloads {
		res, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.ErrorFrac != 0 {
			t.Errorf("%s: correct=%v error_frac=%v failures=%v", w.name, res.Correct, res.ErrorFrac, res.Failures)
		}
		for _, m := range e2eMetrics {
			v, ok := res.Metrics[m.name]
			if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
				t.Errorf("%s: metric %s = %+v", w.name, m.name, v)
			}
		}
		for _, name := range []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p90_ms", "within_limit_frac", "cpu_ms_per_req", "rss_p90_mb"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
			}
		}
		if len(res.Layers) != len(layerMetrics) || len(res.Spans) == 0 {
			t.Errorf("%s: %d layer metrics, %d spans", w.name, len(res.Layers), len(res.Spans))
		}
		if want, ok := wantHits[w.name]; ok && res.Layers["service.cache_hit_ratio"].Value != want {
			t.Errorf("%s: cache hit ratio %v, want %v", w.name, res.Layers["service.cache_hit_ratio"].Value, want)
		}
		file.Runs = append(file.Runs, res)
	}

	path := filepath.Join(dir, "results.json")
	if err := writeJSON(path, file); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := compareFiles(root, path, path, &out)
	if err != nil || code != 0 {
		t.Fatalf("compare with itself: code %d, err %v\n%s", code, err, out.String())
	}
	if n := strings.Count(out.String(), " same (bound"); n != len(workloads)*len(e2eMetrics) {
		t.Errorf("compare with itself: %d verdicts 'same', want %d\n%s", n, len(workloads)*len(e2eMetrics), out.String())
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metric
// lists to the ones the command reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) || len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(spec.EndToEnd), len(e2eMetrics), len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, e2eMetrics[i])
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, layerMetrics[i])
		}
	}
}

// TestQuartilesMatchPython checks quartiles against values from Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 40, 20, 30}, 12.5, 25, 37.5},
	} {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		lower    bool
		want     string
	}{
		{"unchanged", steady, steady, true, same},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, true, worse},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, true, better},
		{"fewer rps", steady, []float64{80, 81, 79, 80, 80}, false, worse},
		{"noisy", steady, []float64{60, 140, 100, 70, 130}, true, unresolved},
		{"noisy but all faster", []float64{90, 130, 100, 95, 125}, []float64{50, 80, 60, 55, 85}, true, better},
	} {
		if got := verdict(c.old, c.new, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
