package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"syscall"
	"time"

	"repro/internal/core"
)

// measure names one reported quantity and its unit.
type measure struct{ name, unit string }

// e2eMetrics are reported by every run, as BENCHMARK.json's end_to_end lists them.
var e2eMetrics = []measure{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"within_limit_frac", "ratio"},
	{"cost_excess_pct", "%"},
	{"cpu_ms_per_req", "ms"},
	{"rss_p90_mb", "MiB"},
}

// layerMetrics are reported by traced runs, as BENCHMARK.json's per_layer
// lists them. A layer a workload does not exercise reads 0.
var layerMetrics = []measure{
	{"synth.generate_ms", "ms"},
	{"service.decode_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.queue_wait_ms.mean", "ms"},
	{"service.queue_wait_ms.p90", "ms"},
	{"service.device_wait_ms.mean", "ms"},
	{"service.device_wait_ms.p90", "ms"},
	{"service.cache_lookup_ms.mean", "ms"},
	{"service.cache_lookup_ms.p90", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cache_evictions", "count"},
	{"service.batched_frac", "ratio"},
	{"service.unattributed_ms", "ms"},
	{"core.prepare_ms", "ms"},
	{"core.finish_ms", "ms"},
	{"hist.match_ms", "ms"},
	{"tilestore.gather_ms", "ms"},
	{"tilestore.bytes", "bytes"},
	{"metric.build_ms", "ms"},
	{"metric.pairs_per_s", "1/s"},
	{"metric.bytes_computed", "bytes"},
	{"localsearch.search_ms", "ms"},
	{"localsearch.sweeps", "count"},
	{"localsearch.swap_attempts", "count"},
	{"localsearch.useful_ratio", "ratio"},
	{"assign.solve_ms.jv", "ms"},
	{"assign.solve_ms.auction-device", "ms"},
	{"assign.solve_ms.sinkhorn", "ms"},
	{"assign.gap_pct.auction-device", "%"},
	{"assign.gap_pct.sinkhorn", "%"},
	{"cuda.launches_per_req", "count"},
	{"cuda.blocks_per_req", "count"},
	{"cuda.wall_ms", "ms"},
	{"cuda.virtual_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.peek_hit_ratio", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.backend_skew", "ratio"},
	{"loadgen.late_ms_p90", "ms"},
	{"loadgen.cpu_ms_per_req", "ms"},
}

// runConfig is everything one run of one workload needs.
type runConfig struct {
	seed   uint64
	window time.Duration
	warmup time.Duration
	// Set-ups are repeated at least setups times and until setupBudget has
	// been spent (at most maxSetups), so a cheap set-up is still a median of
	// many; the last one serves the window.
	setups      int
	setupBudget time.Duration
	sampleN     int // fresh responses the oracle re-runs
	traced      int // requests in the traced pass; 0 skips it
	size, tiles int // 0 keeps the workload's full-size geometry
	bins        binaries
	tmp         string
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a median or percentile
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	ErrorFrac float64          `json:"error_frac"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Layers    map[string]value `json:"layers,omitempty"`
	Spans     []span           `json:"spans,omitempty"`
}

// warmupK0 starts the warm-up's request stream, clear of the window's.
const warmupK0 = 1_000_000

const maxSetups = 50

// runWorkload sets the servers up repeatedly, warms up, measures one
// window, optionally runs the traced pass, and checks the outputs.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*runResult, error) {
	size, tiles := w.size, w.tiles
	if cfg.size > 0 {
		size, tiles = cfg.size, cfg.tiles
	}
	g := newGen(w, cfg.seed, size, tiles)
	c := newClient(time.Now(), size)
	for _, hc := range g.hotSet {
		if hc.upload {
			hc.encoded(g) // client-side preparation, outside every timing
		}
	}

	var setups []float64
	var setupTotal time.Duration
	var cl *fleet
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()
	for i := 0; i < cfg.setups || (setupTotal < cfg.setupBudget && i < maxSetups); i++ {
		if cl != nil {
			cl.stop()
			cl = nil
		}
		t0 := time.Now()
		var err error
		cl, err = startFleet(ctx, cfg.bins, w.routed, cfg.tmp, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, i), c.http)
		if err != nil {
			return nil, err
		}
		for j, hc := range g.hotSet {
			r := g.json(hc, core.Approximation, "", false)
			if hc.upload {
				r = g.upload(hc, core.Approximation, "", false)
			}
			r.id = fmt.Sprintf("%s-prime-%d-%d", g.prefix, i, j)
			if rec := c.send(ctx, cl.entry(), r); !rec.ok() {
				return nil, fmt.Errorf("priming %s: %s", hc.key, rec.failure)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupTotal += time.Since(t0)
	}

	drive(ctx, c, cl.entry(), g, w, warmupK0, cfg.warmup)

	before, err := snapshotFleet(ctx, c, cl)
	if err != nil {
		return nil, err
	}
	start := c.since()
	var recs []*record
	rss := cl.rssWhile(func() { recs = drive(ctx, c, cl.entry(), g, w, 0, cfg.window) })
	after, err := snapshotFleet(ctx, c, cl)
	if err != nil {
		return nil, err
	}
	access, err := cl.readAccess(before.logs, after.logs)
	if err != nil {
		return nil, err
	}

	res := &runResult{Workload: w.name, Seed: cfg.seed, Metrics: map[string]value{}}
	var layers layerSamples
	if cfg.traced > 0 {
		spans := &spanRecorder{epoch: c.epoch}
		layers, err = tracedPass(ctx, c, cl, g, w, cfg.traced, spans)
		if err != nil {
			res.Failures = append(res.Failures, err.Error())
			layers = layerSamples{}
		}
		res.Spans = spans.spans
	}
	cl.stop() // the oracle gets the CPUs to itself
	cl = nil

	excess, err := oracle(ctx, g, recs, cfg.sampleN, clientConns)
	if err != nil {
		return nil, err
	}

	// End-to-end metrics over the window.
	var lat []float64
	var last time.Duration
	ok, within := 0, 0
	limit := time.Duration(w.limitMS * float64(time.Millisecond))
	for _, r := range recs {
		if r.done > last {
			last = r.done
		}
		if !r.ok() {
			res.Failed++
			if len(res.Failures) < 5 {
				res.Failures = append(res.Failures, r.req.id+": "+r.failure)
			}
			continue
		}
		ok++
		lat = append(lat, float64(r.latency())/1e6)
		if r.latency() <= limit {
			within++
		}
	}
	res.Attempted = len(recs)
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no request was sent in the window", w.name)
	}
	res.ErrorFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && len(res.Failures) == 0
	elapsed := (last - start).Seconds()
	cpu := (after.cpu - before.cpu).Seconds() * 1e3
	set := func(name string, v float64, n int) {
		res.Metrics[name] = value{Value: v, Unit: unitOf(e2eMetrics, name), N: n}
	}
	set("setup_s", median(setups), len(setups))
	set("throughput_rps", float64(ok)/elapsed, ok)
	set("latency_p50_ms", percentile(lat, 50), len(lat))
	set("latency_p90_ms", percentile(lat, 90), len(lat))
	set("within_limit_frac", float64(within)/float64(res.Attempted), res.Attempted)
	set("cost_excess_pct", excess, 0)
	set("cpu_ms_per_req", cpu/math.Max(1, float64(ok)), ok)
	set("rss_p90_mb", percentile(rss, 90), len(rss))

	if cfg.traced > 0 {
		windowLayers(layers, recs, access, before, after)
		layers.add("loadgen.cpu_ms_per_req", (after.loadgen-before.loadgen).Seconds()*1e3/float64(res.Attempted))
		res.Layers = map[string]value{}
		for _, m := range layerMetrics {
			res.Layers[m.name] = value{Value: layers.meanOf(m.name), Unit: m.unit, N: len(layers[m.name])}
		}
	}
	return res, nil
}

func unitOf(ms []measure, name string) string {
	for _, m := range ms {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// fleetSnapshot is the state read just before and just after the window.
type fleetSnapshot struct {
	backends []promSnapshot
	router   promSnapshot
	logs     []int64
	cpu      time.Duration // CPU time of every server process
	loadgen  time.Duration // CPU time of this process
}

func snapshotFleet(ctx context.Context, c *client, cl *fleet) (*fleetSnapshot, error) {
	s := &fleetSnapshot{logs: cl.logSizes()}
	for _, b := range cl.backends {
		p, err := scrape(ctx, c.http, b.url)
		if err != nil {
			return nil, err
		}
		s.backends = append(s.backends, p)
	}
	if cl.router != nil {
		p, err := scrape(ctx, c.http, cl.router.url)
		if err != nil {
			return nil, err
		}
		s.router = p
	}
	var err error
	if s.cpu, err = cl.cpu(); err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	s.loadgen = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return s, nil
}

// delta sums a backend counter's change over the window.
func delta(before, after *fleetSnapshot, name string, labels ...string) float64 {
	var d float64
	for i := range after.backends {
		d += after.backends[i].sum(name, labels...) - before.backends[i].sum(name, labels...)
	}
	return d
}

// windowLayers adds the layer metrics read from outside over the window:
// the service's waits from the access log, cache and batching from
// /metrics, the router's counters, and the generator's own lateness.
func windowLayers(ls layerSamples, recs []*record, access []accessLine, before, after *fleetSnapshot) {
	byID := map[string]*record{}
	for _, r := range recs {
		byID[r.req.id] = r
	}
	phases := map[string][]float64{}
	var unattributed []float64
	for _, a := range access {
		if a.Outcome != "done" {
			continue
		}
		for _, p := range []string{"queue_wait", "device_wait", "cache_lookup"} {
			phases[p] = append(phases[p], float64(a.PhasesNS[p])/1e6)
		}
		if r := byID[a.RequestID]; r != nil && r.ok() {
			unattributed = append(unattributed, float64(r.done-r.sent-time.Duration(a.DurationNS))/1e6)
		}
	}
	for _, p := range []string{"queue_wait", "device_wait", "cache_lookup"} {
		if len(phases[p]) > 0 {
			ls.add("service."+p+"_ms.mean", mean(phases[p]))
			ls.add("service."+p+"_ms.p90", percentile(phases[p], 90))
		}
	}
	if len(unattributed) > 0 {
		ls.add("service.unattributed_ms", median(unattributed))
	}

	hits := delta(before, after, "mosaic_service_cache_hits_total")
	misses := delta(before, after, "mosaic_service_cache_misses_total")
	if hits+misses > 0 {
		ls.add("service.cache_hit_ratio", hits/(hits+misses))
	}
	ls.add("service.cache_evictions", delta(before, after, "mosaic_service_cache_evictions_total"))
	if done := delta(before, after, "mosaic_service_jobs_total", `outcome="done"`); done > 0 {
		ls.add("service.batched_frac", delta(before, after, "mosaic_service_batched_jobs_total")/done)
	}

	if after.router != nil {
		per := after.router.perBackend()
		var total, max float64
		for b, v := range per {
			d := v - before.router.perBackend()[b]
			total += d
			if d > max {
				max = d
			}
		}
		if total > 0 {
			ls.add("cluster.peek_hit_ratio", (after.router.sum("mosaic_router_peek_hits_total")-before.router.sum("mosaic_router_peek_hits_total"))/total)
			ls.add("cluster.backend_skew", max/(total/float64(len(after.backends))))
		}
		ls.add("cluster.failovers", after.router.sum("mosaic_router_failovers_total")-before.router.sum("mosaic_router_failovers_total"))
	}

	var late []float64
	for _, r := range recs {
		if r.due != 0 {
			late = append(late, float64(r.sent-r.due)/1e6)
		}
	}
	if len(late) > 0 {
		ls.add("loadgen.late_ms_p90", percentile(late, 90))
	}
}

// makeTmp creates the directory for the run's access logs under dir.
func makeTmp(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
