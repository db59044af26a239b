// Command bench is the benchmark of mosaicd and mosaic-router. It builds
// both servers, starts them as child processes on loopback, drives them over
// HTTP with at most nproc client connections, checks every output against
// the library, and prints every end-to-end metric (or, with -trace 1, every
// per-layer metric) by name with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// From the repository root:
//
//	bash bench/run.sh -workload hot-scenes -seed 1 -seconds 10
//	bash bench/run.sh -workload all -runs 5 -out new.json
//	bash bench/run.sh -compare bench/results/seed.json new.json
//
// See bench/README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		wlName  = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed of the generated contents and request order")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
		out     = flag.String("out", "", "write every run, its spans and the host fingerprint to this JSON file")
		runs    = flag.Int("runs", 1, "runs per workload, seeds seed, seed+1, …")
		compare = flag.String("compare", "", "compare this results file (old) with the one named by the argument (new)")
	)
	flag.Parse()
	root, err := repoRoot()
	if err != nil {
		return 0, err
	}
	if *compare != "" {
		if flag.NArg() != 1 {
			return 0, errors.New("usage: -compare old.json new.json")
		}
		return compareFiles(root, *compare, flag.Arg(0), os.Stdout)
	}
	if *seconds < 1 || *runs < 1 || (*traced != 0 && *traced != 1) {
		return 0, errors.New("-seconds and -runs must be positive and -trace 0 or 1")
	}
	var ws []*workload
	if *wlName == "all" {
		ws = workloads
	} else if w := workloadByName(*wlName); w != nil {
		ws = []*workload{w}
	} else {
		return 0, fmt.Errorf("unknown workload %q", *wlName)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(root, ".bench_build")
	bins, err := buildServers(root, filepath.Join(work, "bin"))
	if err != nil {
		return 0, err
	}
	tmp, err := makeTmp(work)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)

	cfg := fullConfig(*seed, time.Duration(*seconds)*time.Second, *traced == 1)
	cfg.bins, cfg.tmp = bins, tmp
	file := &resultsFile{Fingerprint: takeFingerprint(root, *seed, *seconds), Runs: []*runResult{}}
	for _, w := range ws {
		for i := 0; i < *runs; i++ {
			cfg.seed = *seed + uint64(i)
			res, err := runWorkload(ctx, w, cfg)
			if err != nil {
				return 0, fmt.Errorf("%s (seed %d): %w", w.name, cfg.seed, err)
			}
			printRun(os.Stdout, res)
			file.Runs = append(file.Runs, res)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			return 0, err
		}
	}
	summary := summarize(file.Runs, len(ws) > 1, *traced == 1)
	line, err := json.Marshal(summary)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !summary.Correct {
		return 1, nil
	}
	return 0, nil
}

// fullConfig is the full-size run: at least five timed set-ups and 2 s of
// them, a 3 s warm-up, an oracle sample of 20 fresh responses and, when
// traced, 20 traced requests.
func fullConfig(seed uint64, window time.Duration, traced bool) runConfig {
	cfg := runConfig{seed: seed, window: window, warmup: 3 * time.Second,
		setups: 5, setupBudget: 2 * time.Second, sampleN: 20}
	if traced {
		cfg.traced = 20
	}
	return cfg
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summarize folds the runs into the summary line: the end-to-end metrics,
// or the per-layer ones for traced runs, each the median over the runs.
// With several workloads each name is prefixed by its workload.
func summarize(runs []*runResult, prefixed, traced bool) summary {
	s := summary{Correct: true, Metrics: map[string]value{}}
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		ms := r.Metrics
		if traced {
			ms = r.Layers
		}
		for name, v := range ms {
			if prefixed {
				name = r.Workload + "." + name
			}
			vals[name] = append(vals[name], v.Value)
			units[name] = v.Unit
		}
	}
	for name, vs := range vals {
		s.Metrics[name] = value{Value: median(vs), Unit: units[name]}
	}
	return s
}

func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "%s seed=%d correct=%v attempted=%d failed=%d error_frac=%.4f\n",
		r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.ErrorFrac)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, m := range e2eMetrics {
		v := r.Metrics[m.name]
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", m.name, v.Value, v.Unit, v.N)
	}
	if r.Layers != nil {
		for _, m := range layerMetrics {
			v := r.Layers[m.name]
			fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", m.name, v.Value, v.Unit, v.N)
		}
	}
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Runs        []*runResult `json:"runs"`
}

// fingerprint identifies the host and harness a results file came from.
type fingerprint struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
	Seed        uint64 `json:"seed"`
	Conns       int    `json:"client_connections"`
	WindowS     int    `json:"window_s"`
	Date        string `json:"date"`
}

func takeFingerprint(root string, seed uint64, seconds int) fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRevision: "unknown", CPUModel: "unknown", Seed: seed, Conns: clientConns, WindowS: seconds,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if rev, err := cmd.Output(); err == nil {
		fp.GitRevision = strings.TrimSpace(string(rev))
	}
	return fp
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
