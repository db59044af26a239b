package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/imgutil"
)

// record is one sent request and what came back. Times are offsets from
// the run's epoch.
type record struct {
	req             *request
	due, sent, done time.Duration
	totalError      int64
	pixHash         [32]byte
	failure         string // non-empty for a non-200 or a wrong output
}

func (r *record) ok() bool { return r.failure == "" }

// latency is the request's latency: from its due time in an open loop,
// from its send otherwise.
func (r *record) latency() time.Duration {
	if r.due != 0 {
		return r.done - r.due
	}
	return r.done - r.sent
}

// clientConns is the number of client connections: two, and never more than
// nproc, so the generator cannot outnumber the cores it shares with the
// servers.
var clientConns = min(2, runtime.NumCPU())

// client sends submissions over at most clientConns connections per host.
type client struct {
	http  *http.Client
	epoch time.Time
	size  int
}

func newClient(epoch time.Time, size int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr}, epoch: epoch, size: size}
}

func (c *client) since() time.Duration { return time.Since(c.epoch) }

// mosaicReply is the part of the service's JSON reply the bench checks.
type mosaicReply struct {
	Error      string `json:"error"`
	TotalError int64  `json:"total_error"`
	Partial    bool   `json:"partial"`
	PNGBase64  string `json:"png_base64"`
}

// send posts r to url and checks the reply's shape: a 200, a decodable
// size×size grayscale PNG and a complete (not partial) result. Whether the
// pixels are right is the oracle's job.
func (c *client) send(ctx context.Context, url string, r *request) *record {
	rec := &record{req: r}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/mosaic", bytes.NewReader(r.body))
	if err != nil {
		rec.failure = err.Error()
		return rec
	}
	hr.Header.Set("Content-Type", r.ctype)
	hr.Header.Set("X-Request-ID", r.id)
	rec.sent = c.since()
	resp, err := c.http.Do(hr)
	if err != nil {
		rec.done = c.since()
		rec.failure = err.Error()
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.done = c.since()
	if err != nil {
		rec.failure = "read reply: " + err.Error()
		return rec
	}
	var rep mosaicReply
	if err := json.Unmarshal(body, &rep); err != nil {
		rec.failure = fmt.Sprintf("status %d: undecodable reply", resp.StatusCode)
		return rec
	}
	if resp.StatusCode != http.StatusOK {
		rec.failure = fmt.Sprintf("status %d: %s", resp.StatusCode, rep.Error)
		return rec
	}
	rec.totalError = rep.TotalError
	if rep.Partial {
		rec.failure = "partial result under an ample budget"
		return rec
	}
	raw, err := base64.StdEncoding.DecodeString(rep.PNGBase64)
	if err != nil {
		rec.failure = "png_base64: " + err.Error()
		return rec
	}
	img, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		rec.failure = "png: " + err.Error()
		return rec
	}
	g := imgutil.GrayFromImage(img)
	if g.W != c.size || g.H != c.size {
		rec.failure = fmt.Sprintf("mosaic is %dx%d, want %dx%d", g.W, g.H, c.size, c.size)
		return rec
	}
	rec.pixHash = sha256.Sum256(g.Pix)
	return rec
}

// drive runs the workload's traffic for dur, requests k0, k0+1, … in seed
// order. A closed loop keeps one request outstanding per connection; an
// open loop sends request i at start + i/rate whether or not earlier ones
// have returned, over the same bounded connection set, so a stall delays
// the requests queued behind it and shows in their latency.
func drive(ctx context.Context, c *client, url string, g *gen, w *workload, k0 int, dur time.Duration) []*record {
	var (
		mu   sync.Mutex
		recs []*record
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := c.since()
	end := start + dur
	for i := 0; i < clientConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				var due time.Duration
				if w.rate > 0 {
					due = start + time.Duration(float64(i)/w.rate*float64(time.Second))
					if due >= end {
						return
					}
				} else if c.since() >= end {
					return
				}
				r := g.next(w, k0+i)
				if due != 0 {
					time.Sleep(due - c.since())
				}
				rec := c.send(ctx, url, r)
				rec.due = due
				r.body = nil // the window's records must not pin every upload
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}
