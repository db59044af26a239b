package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"image/png"
	"net/http"
	"time"

	"repro/internal/assign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hist"
	"repro/internal/localsearch"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/tilestore"
)

// span is one timed call into a layer, recorded by the bench around the
// layer's exported function.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // 0 for a request root
	Name      string `json:"name"`
	RequestID string `json:"request_id"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

// spanRecorder keeps a run's spans in memory until the results are written.
// The traced pass is sequential, so it needs no locking.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func (s *spanRecorder) start(name, req string, parent int) int {
	s.spans = append(s.spans, span{ID: len(s.spans) + 1, Parent: parent, Name: name, RequestID: req,
		StartNS: int64(time.Since(s.epoch))})
	return len(s.spans)
}

// end closes span id and returns its duration in milliseconds.
func (s *spanRecorder) end(id int) float64 {
	sp := &s.spans[id-1]
	sp.EndNS = int64(time.Since(s.epoch))
	return float64(sp.EndNS-sp.StartNS) / 1e6
}

// layerSamples collects per-request values of each layer metric.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

// meanOf returns the mean of a metric's samples, 0 when the layer never ran.
func (l layerSamples) meanOf(name string) float64 { return mean(l[name]) }

// timingModel is the virtual clock's accelerator: the paper's K40 has 15
// SMs; 32 cores per SM and a 3µs launch overhead calibrate it for these
// memory-bound kernels.
var timingModel = cuda.TimingModel{SMs: 15, CoresPerSM: 32, LaunchOverhead: 3 * time.Microsecond}

// tracedPass sends n seeded requests one at a time and replays each one
// in-process through the layers' exported functions, inside spans. The
// replay must do the server's work: its rebuilt matrix must equal
// Prepared.Costs() bit for bit and its result must equal the response.
func tracedPass(ctx context.Context, c *client, cl *fleet, g *gen, w *workload, n int, spans *spanRecorder) (layerSamples, error) {
	ls := layerSamples{}
	dev := cuda.New(0) // all cores, like a pool device
	timed := cuda.New(1)
	if err := timed.SetTimingModel(&timingModel); err != nil {
		return nil, err
	}
	var ring *cluster.Ring
	if cl.router != nil {
		ring = cluster.NewRing(128) // mosaic-router's default -replicas
		for _, u := range cl.backendURLs() {
			ring.Add(u)
		}
	}
	for i := 0; i < n; i++ {
		r := g.next(w, tracedK0+i)
		rec := c.send(ctx, cl.entry(), r)
		if !rec.ok() {
			return nil, fmt.Errorf("traced request %s: %s", r.id, rec.failure)
		}
		key, err := replay(ctx, r, rec, dev, timed, ls, spans)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.id, err)
		}
		if ring != nil {
			hop, err := hopLatency(ctx, c, cl, ring.Pick(key), r)
			if err != nil {
				return nil, err
			}
			ls.add("cluster.hop_ms", hop)
		}
	}
	return ls, nil
}

// tracedK0 starts the traced pass's stream, clear of the window's.
const tracedK0 = 2_000_000

// hopLatency is the routed latency minus the direct-to-home latency for the
// same body, once both are cache hits.
func hopLatency(ctx context.Context, c *client, cl *fleet, home string, r *request) (float64, error) {
	direct := *r
	direct.id = r.id + "-direct"
	d := c.send(ctx, home, &direct)
	routed := *r
	routed.id = r.id + "-routed"
	rt := c.send(ctx, cl.entry(), &routed)
	if !d.ok() || !rt.ok() {
		return 0, fmt.Errorf("hop probe %s: %s%s", r.id, d.failure, rt.failure)
	}
	return float64(rt.latency()-d.latency()) / 1e6, nil
}

// replay runs one request through the layers and returns its content key.
func replay(ctx context.Context, r *request, rec *record, dev, timed *cuda.Device, ls layerSamples, spans *spanRecorder) (string, error) {
	id := r.id
	root := spans.start("request", id, 0)
	defer spans.end(root)

	s := spans.start("service.decode", id, root)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/mosaic", bytes.NewReader(r.body))
	if err != nil {
		return "", err
	}
	hr.Header.Set("Content-Type", r.ctype)
	req, err := service.DecodeSubmission(hr, 0)
	if err != nil {
		return "", err
	}
	key := req.ContentKey()
	ls.add("service.decode_ms", spans.end(s))

	synthMS := 0.0
	if !r.content.upload {
		s = spans.start("synth.generate", id, root)
		for _, sc := range r.content.scenes {
			if _, err := synth.Generate(sc, r.content.size); err != nil {
				return "", err
			}
		}
		synthMS = spans.end(s)
	}
	ls.add("synth.generate_ms", synthMS)

	// Steps 1–2 layer by layer, as PrepareContext composes them.
	m := r.content.size / r.content.tiles
	s = spans.start("tilestore.gather", id, root)
	tgtStore, err := tilestore.FromImage(req.Target, m)
	if err != nil {
		return "", err
	}
	gatherMS := spans.end(s)
	s = spans.start("hist.match", id, root)
	lut, err := hist.MatchLUT(hist.Of(req.Input), tgtStore.GlobalHistogram())
	if err != nil {
		return "", err
	}
	ls.add("hist.match_ms", spans.end(s))
	s = spans.start("tilestore.gather", id, root)
	inStore, _, err := tilestore.GatherLUT(req.Input, m, lut)
	if err != nil {
		return "", err
	}
	ls.add("tilestore.gather_ms", gatherMS+spans.end(s))
	ls.add("tilestore.bytes", float64(inStore.MemoryBytes()+tgtStore.MemoryBytes()))
	s = spans.start("metric.build", id, root)
	mat, err := metric.BuildStore(dev, inStore, tgtStore, metric.L1, metric.BuilderAuto)
	if err != nil {
		return "", err
	}
	buildMS := spans.end(s)
	pairs := float64(mat.S) * float64(mat.S)
	ls.add("metric.build_ms", buildMS)
	ls.add("metric.pairs_per_s", pairs/(buildMS/1e3))
	ls.add("metric.bytes_computed", pairs*float64(m*m))

	opts := core.Options{TilesPerSide: r.content.tiles, Algorithm: r.alg, Solver: r.solver, Device: dev, Resilience: &core.Resilience{}}
	d0 := dev.Metrics()
	s = spans.start("core.prepare", id, root)
	prep, err := core.PrepareContext(ctx, req.Input, req.Target, opts)
	if err != nil {
		return "", err
	}
	ls.add("core.prepare_ms", spans.end(s))
	devWork := dev.Metrics().Sub(d0)
	if !mat.Equal(prep.Costs()) {
		return "", fmt.Errorf("rebuilt matrix differs from Prepared.Costs()")
	}

	if err := replayStep3(ctx, r, prep.Costs(), dev, ls, spans, root); err != nil {
		return "", err
	}

	d0 = dev.Metrics()
	s = spans.start("core.finish", id, root)
	res, err := prep.FinishContext(ctx, opts)
	if err != nil {
		return "", err
	}
	ls.add("core.finish_ms", spans.end(s))
	devWork = addMetrics(devWork, dev.Metrics().Sub(d0))
	if res.TotalError != rec.totalError || sha256.Sum256(res.Mosaic.Pix) != rec.pixHash {
		return "", fmt.Errorf("replayed result differs from the response (total_error %d vs %d)", res.TotalError, rec.totalError)
	}
	ls.add("cuda.launches_per_req", float64(devWork.Launches))
	ls.add("cuda.blocks_per_req", float64(devWork.Blocks))
	ls.add("cuda.wall_ms", float64(devWork.LaunchNanos)/1e6)

	s = spans.start("service.encode", id, root)
	var buf bytes.Buffer
	if err := png.Encode(&buf, res.Mosaic.ToImage()); err != nil {
		return "", err
	}
	ls.add("service.encode_ms", spans.end(s))

	// The same device work on the modelled accelerator. Virtual time is
	// reported beside the wall time above, never instead of it.
	s = spans.start("cuda.timing-model", id, root)
	timed.ResetVirtualTime()
	opts.Device = timed
	tp, err := core.PrepareContext(ctx, req.Input, req.Target, opts)
	if err == nil {
		_, err = tp.FinishContext(ctx, opts)
	}
	if err != nil {
		return "", err
	}
	spans.end(s)
	ls.add("cuda.virtual_ms", float64(timed.VirtualTime())/1e6)
	return key, nil
}

// replayStep3 runs the request's Step-3 engine on the prepared matrix: the
// local search for the approximation algorithms, the requested solver (and
// JV, for the gap) for optimization.
func replayStep3(ctx context.Context, r *request, costs *metric.Matrix, dev *cuda.Device, ls layerSamples, spans *spanRecorder, root int) error {
	id := r.id
	start := perm.Identity(costs.S)
	if r.alg != core.Optimization {
		s := spans.start("localsearch.search", id, root)
		var st localsearch.Stats
		var err error
		switch r.alg {
		case core.Approximation:
			_, st, err = localsearch.SerialContext(ctx, costs, start, localsearch.Options{})
		case core.ApproximationDirty:
			_, st, err = localsearch.SerialDirtyContext(ctx, costs, start, localsearch.Options{})
		case core.ParallelApproximation:
			_, st, err = localsearch.ParallelContext(ctx, dev, costs, start, nil, localsearch.Options{})
		default:
			err = fmt.Errorf("no replay for algorithm %q", r.alg)
		}
		if err != nil {
			return err
		}
		ls.add("localsearch.search_ms", spans.end(s))
		ls.add("localsearch.sweeps", float64(st.Passes))
		ls.add("localsearch.swap_attempts", float64(st.Attempts))
		if st.Attempts > 0 {
			ls.add("localsearch.useful_ratio", float64(st.Swaps)/float64(st.Attempts))
		}
		return nil
	}
	solve := func(solver assign.Algorithm) (int64, error) {
		s := spans.start("assign.solve."+string(solver), id, root)
		var p perm.Perm
		var err error
		switch solver {
		case assign.AlgoAuctionDevice:
			p, _, err = assign.AuctionDeviceContext(ctx, costs.S, costs.W, assign.DeviceAuctionOptions{Device: dev})
		case assign.AlgoSinkhorn:
			p, _, err = assign.SinkhornContext(ctx, costs.S, costs.W, assign.SinkhornOptions{})
		default:
			p, err = assign.Solvers()[solver](costs.S, costs.W)
		}
		if err != nil {
			return 0, err
		}
		ls.add("assign.solve_ms."+string(solver), spans.end(s))
		return costs.Total(p), nil
	}
	solver := r.solver
	if solver == "" {
		solver = assign.AlgoJV
	}
	opt, err := solve(assign.AlgoJV)
	if err != nil || solver == assign.AlgoJV {
		return err
	}
	cost, err := solve(solver)
	if err != nil {
		return err
	}
	ls.add("assign.gap_pct."+string(solver), 100*(float64(cost)/float64(opt)-1))
	return nil
}

func addMetrics(a, b cuda.Metrics) cuda.Metrics {
	return cuda.Metrics{Launches: a.Launches + b.Launches, Blocks: a.Blocks + b.Blocks, LaunchNanos: a.LaunchNanos + b.LaunchNanos}
}
