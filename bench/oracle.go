package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/cuda"
)

// oracleResult is what the library computes for one request's content and
// options, next to the exact (JV) optimum of the same content.
type oracleResult struct {
	totalError int64
	pixHash    [32]byte
	optimum    int64
}

// oracle re-runs responses through core.GenerateContext with the same
// options and marks every response whose pixels or total_error differ as a
// failure. It checks every response for hot content (a handful of distinct
// results, each computed once) and a sample of at least sampleN responses
// for fresh content. It returns cost_excess_pct over the distinct results
// it checked: 100 × (Σ total_error ÷ Σ JV optimum − 1).
func oracle(ctx context.Context, g *gen, recs []*record, sampleN, workers int) (float64, error) {
	var fresh []*record
	var checked []*record
	for _, r := range recs {
		if !r.ok() {
			continue
		}
		if r.req.content.hot {
			checked = append(checked, r)
		} else {
			fresh = append(fresh, r)
		}
	}
	// The sample is the stream's first fresh responses: fixed scene pairs
	// and algorithms with seeded pixels, so cost_excess_pct compares like
	// with like across seeds. Smaller mosaics get proportionally more
	// samples (sampleN at S = 1024), which keeps the oracle's cost flat and
	// the quality average steady.
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].req.k < fresh[j].req.k })
	if n := max(sampleN, sampleN*1024/(g.tiles*g.tiles)); len(fresh) > n {
		fresh = fresh[:n]
	}
	checked = append(checked, fresh...)

	// One job per distinct result; the optimum is computed once per content.
	jobs := map[string]*request{}
	for _, r := range checked {
		jobs[r.req.optionKey()] = r.req
	}
	keys := make([]string, 0, len(jobs))
	for k := range jobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var (
		mu       sync.Mutex
		results  = map[string]*oracleResult{}
		optima   = map[string]int64{}
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan string)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A device serves one launch at a time, so each worker owns one.
			dev := cuda.New(1)
			for key := range next {
				res, err := computeOracle(ctx, g, dev, jobs[key], &mu, optima)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				results[key] = res
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}

	var sumErr, sumOpt int64
	for _, k := range keys {
		sumErr += results[k].totalError
		sumOpt += results[k].optimum
	}
	for _, r := range checked {
		want := results[r.req.optionKey()]
		if r.totalError != want.totalError || r.pixHash != want.pixHash {
			r.failure = fmt.Sprintf("output differs from core.GenerateContext (total_error %d, want %d)", r.totalError, want.totalError)
		}
	}
	if sumOpt == 0 {
		return 0, nil
	}
	return 100 * (float64(sumErr)/float64(sumOpt) - 1), nil
}

// computeOracle runs the library on one request's content and options, and
// the exact optimum of the content once per content key.
func computeOracle(ctx context.Context, g *gen, dev *cuda.Device, r *request, mu *sync.Mutex, optima map[string]int64) (*oracleResult, error) {
	in, tgt, err := r.content.images(g)
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		TilesPerSide: r.content.tiles,
		Algorithm:    r.alg,
		Solver:       r.solver,
		Device:       dev,
		Resilience:   &core.Resilience{},
	}
	res, err := core.GenerateContext(ctx, in, tgt, opts)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", r.optionKey(), err)
	}
	out := &oracleResult{totalError: res.TotalError, pixHash: sha256.Sum256(res.Mosaic.Pix)}
	mu.Lock()
	opt, ok := optima[r.content.key]
	mu.Unlock()
	if !ok {
		opts.Algorithm, opts.Solver = core.Optimization, ""
		jv, err := core.GenerateContext(ctx, in, tgt, opts)
		if err != nil {
			return nil, fmt.Errorf("oracle optimum %s: %w", r.content.key, err)
		}
		opt = jv.TotalError
		mu.Lock()
		optima[r.content.key] = opt
		mu.Unlock()
	}
	out.optimum = opt
	return out, nil
}
