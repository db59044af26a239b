package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the go.mod of module
// "repro", the tree whose servers the benchmark builds.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing go.mod for module repro (run from the repository)")
		}
		dir = parent
	}
}

// binaries are the built server executables.
type binaries struct {
	mosaicd, router string
}

// buildServers compiles cmd/mosaicd and cmd/mosaic-router into dir, once,
// before anything is timed.
func buildServers(root, dir string) (binaries, error) {
	b := binaries{
		mosaicd: filepath.Join(dir, "mosaicd"),
		router:  filepath.Join(dir, "mosaic-router"),
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/mosaicd", "./cmd/mosaic-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return b, fmt.Errorf("build servers: %v\n%s", err, out)
	}
	return b, nil
}

// proc is one running server child process.
type proc struct {
	name      string
	cmd       *exec.Cmd
	url       string // http://host:port once the server announced its bind
	accessLog string
	stderr    chan struct{} // closed once the stderr reader has drained
	tail      *tailBuffer
}

// tailBuffer keeps the last lines a child wrote to stderr, for error reports.
type tailBuffer struct{ lines []string }

func (t *tailBuffer) add(l string) {
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, l)
}

// startProc execs bin on a kernel-chosen loopback port and waits for the
// "serving on http://…" announcement on its stderr.
func startProc(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, stderr: make(chan struct{}), tail: &tailBuffer{}}
	addr := make(chan string, 1)
	// The reader owns tail until it closes p.stderr; it keeps draining so
	// the child never blocks on a full pipe.
	go func() {
		defer close(p.stderr)
		sc := bufio.NewScanner(pipe)
		announced := false
		for sc.Scan() {
			l := sc.Text()
			p.tail.add(l)
			if i := strings.Index(l, "serving on http://"); i >= 0 && !announced {
				f := strings.Fields(l[i+len("serving on "):])
				addr <- strings.TrimSuffix(f[0], ",")
				announced = true
			}
		}
	}()
	select {
	case u := <-addr:
		p.url = u
		return p, nil
	case <-p.stderr:
	case <-time.After(20 * time.Second):
	}
	p.stop()
	return nil, fmt.Errorf("%s did not announce its address: %s", name, strings.Join(p.tail.lines, " | "))
}

// stop sends SIGTERM (the servers drain and exit cleanly), kills after a
// grace period, and waits for the process and its stderr reader.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	done := make(chan struct{})
	go func() {
		<-p.stderr
		_ = p.cmd.Wait() // the exit status of a drained server is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// fleet is the set of servers one workload runs against: one mosaicd, or
// two mosaicd backends behind mosaic-router.
type fleet struct {
	backends []*proc
	router   *proc
}

// entry is the URL clients send requests to.
func (c *fleet) entry() string {
	if c.router != nil {
		return c.router.url
	}
	return c.backends[0].url
}

func (c *fleet) procs() []*proc {
	ps := append([]*proc(nil), c.backends...)
	if c.router != nil {
		ps = append(ps, c.router)
	}
	return ps
}

func (c *fleet) stop() {
	for _, p := range c.procs() {
		p.stop()
	}
}

// startFleet execs the servers with their default flags plus an access log
// in dir, and waits until every /readyz answers 200.
func startFleet(ctx context.Context, bins binaries, routed bool, dir string, tag string, client *http.Client) (*fleet, error) {
	c := &fleet{}
	n := 1
	if routed {
		n = 2
	}
	for i := 0; i < n; i++ {
		logPath := filepath.Join(dir, fmt.Sprintf("access-%s-%d.log", tag, i))
		p, err := startProc(fmt.Sprintf("mosaicd#%d", i), bins.mosaicd, "-access-log", logPath)
		if err != nil {
			c.stop()
			return nil, err
		}
		p.accessLog = logPath
		c.backends = append(c.backends, p)
	}
	if routed {
		p, err := startProc("mosaic-router", bins.router, "-peers", strings.Join(c.backendURLs(), ","))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.router = p
	}
	for _, p := range c.procs() {
		if err := waitReady(ctx, client, p.url); err != nil {
			c.stop()
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return c, nil
}

func (c *fleet) backendURLs() []string {
	var us []string
	for _, b := range c.backends {
		us = append(us, b.url)
	}
	return us
}

// waitReady polls /readyz every millisecond until it answers 200.
func waitReady(ctx context.Context, client *http.Client, url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("/readyz never answered 200")
}

// promSnapshot is one /metrics scrape: series ("name{labels}") → value.
type promSnapshot map[string]float64

func scrape(ctx context.Context, client *http.Client, url string) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	snap := promSnapshot{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // drop an exemplar
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:sp]] = v
	}
	return snap, nil
}

// sum adds every series of the metric family name whose labels contain
// every given label fragment (e.g. `outcome="done"`).
func (s promSnapshot) sum(name string, labels ...string) float64 {
	var t float64
	for series, v := range s {
		base := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			base = series[:i]
		}
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(series, l)
		}
		if ok {
			t += v
		}
	}
	return t
}

// perBackend returns the router's per-backend request counters.
func (s promSnapshot) perBackend() map[string]float64 {
	out := map[string]float64{}
	for series, v := range s {
		const pre = `mosaic_router_requests_total{backend="`
		if strings.HasPrefix(series, pre) {
			out[strings.TrimSuffix(series[len(pre):], `"}`)] = v
		}
	}
	return out
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every mainstream Linux architecture.
const clockTick = 100

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	// After the command name: state is field 3, utime 14 and stime 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed CPU times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procRSS returns a process's resident set (VmRSS) in bytes.
func procRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

// cpu sums CPU time over every server process.
func (c *fleet) cpu() (time.Duration, error) {
	var t time.Duration
	for _, p := range c.procs() {
		d, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t += d
	}
	return t, nil
}

// rssWhile runs fn while sampling the servers' summed resident set every
// 100 ms, and returns the samples in MiB.
func (c *fleet) rssWhile(fn func()) []float64 {
	stop := make(chan struct{})
	samples := make(chan []float64)
	go func() {
		var xs []float64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				samples <- xs
				return
			case <-t.C:
				var sum int64
				for _, p := range c.procs() {
					b, err := procRSS(p.cmd.Process.Pid)
					if err != nil {
						continue // a sample missing one process is still a lower bound
					}
					sum += b
				}
				xs = append(xs, float64(sum)/(1<<20))
			}
		}
	}()
	fn()
	close(stop)
	return <-samples
}

// accessLine is the part of mosaicd's access-log record the bench reads.
type accessLine struct {
	RequestID  string           `json:"request_id"`
	Outcome    string           `json:"outcome"`
	DurationNS int64            `json:"duration_ns"`
	PhasesNS   map[string]int64 `json:"phases_ns"`
	Cache      string           `json:"cache"`
	Batched    bool             `json:"batched"`
}

// logSizes records each backend's access-log length, so a later read sees
// only the lines written after this point.
func (c *fleet) logSizes() []int64 {
	var sz []int64
	for _, b := range c.backends {
		st, err := os.Stat(b.accessLog)
		if err != nil {
			sz = append(sz, 0)
			continue
		}
		sz = append(sz, st.Size())
	}
	return sz
}

// readAccess parses the access-log lines every backend wrote between the
// offsets from and to (both from logSizes).
func (c *fleet) readAccess(from, to []int64) ([]accessLine, error) {
	var out []accessLine
	for i, b := range c.backends {
		f, err := os.Open(b.accessLog)
		if err != nil {
			return nil, err
		}
		data := make([]byte, to[i]-from[i])
		_, err = f.ReadAt(data, from[i])
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", b.accessLog, err)
		}
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(l) == 0 {
				continue
			}
			var a accessLine
			if err := json.Unmarshal(l, &a); err != nil {
				return nil, fmt.Errorf("access log %s: %w", b.accessLog, err)
			}
			out = append(out, a)
		}
	}
	return out, nil
}
