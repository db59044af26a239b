package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"mime/multipart"
	"strconv"
	"sync"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/imgutil"
	"repro/internal/synth"
)

// workload is one pinned traffic mix.
type workload struct {
	name string
	// routed puts mosaic-router in front of two mosaicd backends.
	routed bool
	// size and tiles are the full-size request geometry.
	size, tiles int
	// rate is the open-loop arrival rate in requests per second; 0 runs a
	// closed loop with one client per connection.
	rate float64
	// limitMS is the latency limit of within_limit_frac: about twice the
	// p50 of the workload's slowest request kind, measured on the commit
	// that introduced the benchmark.
	limitMS float64
	// hot is the content primed during setup; every request that names it
	// should hit the prepared-work cache.
	hot func(g *gen) []*content
	// request builds request k of a stream (warm-up, window and traced
	// passes use disjoint k ranges).
	request func(g *gen, k int) *request
}

// The paper's seven test scenes, the pool fresh uploads are drawn from.
var paperScenes = []synth.Scene{synth.Lena, synth.Sailboat, synth.Airplane, synth.Peppers, synth.Barbara, synth.Baboon, synth.Tiffany}

// hotPairs is the pinned hot set of scene-name contents. It does not depend
// on the seed, so every seed measures the same cached work and the seed
// only reorders it.
var hotPairs = [][2]synth.Scene{
	{synth.Lena, synth.Sailboat}, {synth.Sailboat, synth.Airplane},
	{synth.Airplane, synth.Peppers}, {synth.Peppers, synth.Barbara},
	{synth.Barbara, synth.Baboon}, {synth.Baboon, synth.Tiffany},
	{synth.Tiffany, synth.Lena}, {synth.Lena, synth.Peppers},
}

// pinnedSeed perturbs the hot upload contents of assign-hot; like hotPairs
// it is fixed so seeds compare the same cached work.
const pinnedSeed = 0x5EED0A55

var workloads = []*workload{
	// Fresh uploads at S=1024 miss the cache: Steps 1-2 and the local search
	// dominate, and the cache only inserts and evicts.
	{
		name:    "cold-upload",
		size:    512,
		tiles:   32,
		limitMS: 300,
		request: func(g *gen, k int) *request {
			algs := []core.Algorithm{core.Approximation, core.ParallelApproximation}
			return g.upload(g.fresh(g.seed, k), algs[k%2], "", false)
		},
	},
	// Scene names from 8 primed contents hit the cache: synthesis, Step 3
	// and PNG encoding dominate. Step 2 never runs, so a Step-2 speed-up
	// must show no change here.
	{
		name:    "hot-scenes",
		size:    512,
		tiles:   32,
		limitMS: 190,
		hot:     func(g *gen) []*content { return g.scenePairs(8) },
		request: func(g *gen, k int) *request {
			algs := []core.Algorithm{core.Approximation, core.ApproximationDirty}
			c := g.hotSet[g.pick(k, len(g.hotSet))]
			return g.json(c, algs[k%2], "", false)
		},
	},
	// Uploads of 4 primed contents with algorithm=optimization: the
	// assignment solvers are the largest share and the local search never
	// runs.
	{
		name:    "assign-hot",
		size:    512,
		tiles:   32,
		limitMS: 190,
		hot: func(g *gen) []*content {
			var cs []*content
			for i := 0; i < 4; i++ {
				cs = append(cs, g.fresh(pinnedSeed, i))
			}
			return cs
		},
		request: func(g *gen, k int) *request {
			solvers := []assign.Algorithm{assign.AlgoJV, assign.AlgoAuctionDevice, assign.AlgoSinkhorn}
			c := g.hotSet[g.pick(k, len(g.hotSet))]
			return g.upload(c, core.Optimization, solvers[k%3], false)
		},
	},
	// Open loop through mosaic-router at S=256: the router's decoding and
	// hashing, the cache peek, forwarding, and queue and device waits
	// dominate. The rate is about 60% of this mix's closed-loop capacity:
	// results/routed-mix-closed-loop.json holds five runs with rate 0 on the
	// commit that introduced the benchmark, median 64 req/s.
	{
		name:    "routed-mix",
		routed:  true,
		size:    256,
		tiles:   16,
		rate:    37,
		limitMS: 100,
		hot:     func(g *gen) []*content { return g.scenePairs(4) },
		// A third of the requests name hot scenes and two thirds upload
		// fresh pairs. An even split would put the median in the gap
		// between the two kinds' latencies, where it jumps between runs.
		request: func(g *gen, k int) *request {
			anytime := k%4 == 3
			if k%3 == 0 {
				c := g.hotSet[g.pick(k, len(g.hotSet))]
				return g.json(c, core.Approximation, "", anytime)
			}
			return g.upload(g.fresh(g.seed, k), core.Approximation, "", anytime)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// content is one (input, target) pair: either two built-in scene names,
// which the server synthesizes, or two uploaded images regenerated on
// demand from their seed.
type content struct {
	key         string // stable identity, used to memoize oracle results
	scenes      [2]synth.Scene
	upload      bool
	noiseSeed   uint64
	size, tiles int

	// hot contents are sent many times, so their encoded uploads are kept;
	// fresh ones are regenerated whenever needed, which keeps a window's
	// records small.
	hot    bool
	once   sync.Once
	pngIn  []byte
	pngTgt []byte
}

// images returns the pixels the server decodes for this content.
func (c *content) images(g *gen) (*imgutil.Gray, *imgutil.Gray, error) {
	if !c.upload {
		in, err := synth.Generate(c.scenes[0], c.size)
		if err != nil {
			return nil, nil, err
		}
		tgt, err := synth.Generate(c.scenes[1], c.size)
		return in, tgt, err
	}
	return perturb(g.base(c.scenes[0]), c.noiseSeed), perturb(g.base(c.scenes[1]), c.noiseSeed^0x7A3), nil
}

// encoded returns the content's two PNG uploads.
func (c *content) encoded(g *gen) (in, tgt []byte) {
	enc := func() ([]byte, []byte) {
		i, t, _ := c.images(g) // uploads are generated in memory and cannot fail
		return encodePNG(i), encodePNG(t)
	}
	if !c.hot {
		return enc()
	}
	c.once.Do(func() { c.pngIn, c.pngTgt = enc() })
	return c.pngIn, c.pngTgt
}

// perturb moves one pixel, chosen by the seed, one level towards mid-grey.
// The content hash is new, so the upload misses every cache, while the
// picture, and so the work and the mosaic quality, stays as it was. A denser
// perturbation (one pixel in 64 by up to ±3 levels) sends the local search
// to other local optima, and cost_excess_pct then moved by 4-7% from seed to
// seed instead of 0.2-1%.
func perturb(img *imgutil.Gray, seed uint64) *imgutil.Gray {
	out := img.Clone()
	i := splitmix64(seed) % uint64(len(out.Pix))
	if out.Pix[i] < 128 {
		out.Pix[i]++
	} else {
		out.Pix[i]--
	}
	return out
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// request is one HTTP submission plus what the bench needs to check it.
type request struct {
	k       int    // position in the seeded stream
	id      string // X-Request-ID
	content *content
	alg     core.Algorithm
	solver  assign.Algorithm
	body    []byte
	ctype   string
}

// optionKey names the result a request must produce: content plus Step-3
// options.
func (r *request) optionKey() string {
	return r.content.key + "|" + string(r.alg) + "|" + string(r.solver)
}

// gen makes a run's requests from its seed. Only generated bodies reach
// the servers.
type gen struct {
	seed        uint64
	size, tiles int
	prefix      string // request-ID prefix, unique per run

	baseMu sync.Mutex
	bases  map[synth.Scene]*imgutil.Gray
	hotSet []*content
}

func newGen(w *workload, seed uint64, size, tiles int) *gen {
	g := &gen{seed: seed, size: size, tiles: tiles, bases: map[synth.Scene]*imgutil.Gray{},
		prefix: fmt.Sprintf("%s-%d", w.name, seed)}
	if w.hot != nil {
		g.hotSet = w.hot(g)
		for _, c := range g.hotSet {
			c.hot = true
		}
	}
	return g
}

// next is request k of the workload's stream, with its request ID.
func (g *gen) next(w *workload, k int) *request {
	r := w.request(g, k)
	r.k = k
	r.id = fmt.Sprintf("%s-%d", g.prefix, k)
	return r
}

// base returns the synthesized scene at the run's size (computed once).
func (g *gen) base(s synth.Scene) *imgutil.Gray {
	g.baseMu.Lock()
	defer g.baseMu.Unlock()
	if img, ok := g.bases[s]; ok {
		return img
	}
	img := synth.MustGenerate(s, g.size)
	g.bases[s] = img
	return img
}

// pick draws request k's index into n choices from the seed.
func (g *gen) pick(k, n int) int {
	return int(splitmix64(g.seed*0x9E3779B97F4A7C15+uint64(k)) % uint64(n))
}

// fresh is upload content k of the stream seeded by seed. Its scene pair
// cycles through the 42 ordered pairs of distinct paper scenes, so every
// seed sends the same mix of pictures; the seed draws the noise that makes
// each upload new.
func (g *gen) fresh(seed uint64, k int) *content {
	h := splitmix64(seed ^ splitmix64(uint64(k)+1))
	i := k % 42 / 6
	j := (i + 1 + k%6) % 7
	return &content{
		key:       fmt.Sprintf("upload/%x/%d", seed, k),
		scenes:    [2]synth.Scene{paperScenes[i], paperScenes[j]},
		upload:    true,
		noiseSeed: h,
		size:      g.size,
		tiles:     g.tiles,
	}
}

// scenePairs is the first n pinned hot scene-name contents.
func (g *gen) scenePairs(n int) []*content {
	var cs []*content
	for _, p := range hotPairs[:n] {
		cs = append(cs, &content{
			key:    fmt.Sprintf("scenes/%s>%s/%d", p[0], p[1], g.size),
			scenes: p, size: g.size, tiles: g.tiles,
		})
	}
	return cs
}

// json builds a JSON scene-name submission.
func (g *gen) json(c *content, alg core.Algorithm, solver assign.Algorithm, anytime bool) *request {
	body := map[string]any{
		"input": string(c.scenes[0]), "target": string(c.scenes[1]),
		"size": c.size, "tiles": c.tiles, "algorithm": string(alg),
	}
	if solver != "" {
		body["solver"] = string(solver)
	}
	if anytime {
		body["anytime"] = true
		body["timeout_ms"] = 10000
	}
	data, _ := json.Marshal(body) // a map of strings, ints and bools always marshals
	return &request{content: c, alg: alg, solver: solver, body: data, ctype: "application/json"}
}

// upload builds a multipart submission carrying both images as PNG.
func (g *gen) upload(c *content, alg core.Algorithm, solver assign.Algorithm, anytime bool) *request {
	pngIn, pngTgt := c.encoded(g)
	fields := [][2]string{{"size", strconv.Itoa(c.size)}, {"tiles", strconv.Itoa(c.tiles)}, {"algorithm", string(alg)}}
	if solver != "" {
		fields = append(fields, [2]string{"solver", string(solver)})
	}
	if anytime {
		fields = append(fields, [2]string{"anytime", "true"}, [2]string{"timeout_ms", "10000"})
	}
	// Writes into a bytes.Buffer cannot fail, so the writer errors are dropped.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, f := range fields {
		_ = mw.WriteField(f[0], f[1])
	}
	for _, f := range []struct {
		name string
		data []byte
	}{{"input", pngIn}, {"target", pngTgt}} {
		fw, _ := mw.CreateFormFile(f.name, f.name+".png")
		_, _ = fw.Write(f.data)
	}
	_ = mw.Close()
	return &request{content: c, alg: alg, solver: solver, body: buf.Bytes(), ctype: mw.FormDataContentType()}
}

func encodePNG(img *imgutil.Gray) []byte {
	var buf bytes.Buffer
	enc := png.Encoder{CompressionLevel: png.BestSpeed}
	_ = enc.Encode(&buf, img.ToImage()) // encoding to memory cannot fail
	return buf.Bytes()
}
