// Command perfbench drives the real `ldprecover serve` binary on
// loopback with pre-built, seeded LDP traffic under a ramping MGA
// poisoning attack, checks every served estimate against an in-process
// replay of the same inputs, and prints end-to-end metrics (or, with
// -trace 1, per-layer metrics from a traced run). Run it from the
// repository root through perfbench/run.sh, which builds the server:
//
//	bash perfbench/run.sh --workload report-ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one invocation's settings.
type env struct {
	name    string // the workload
	bin     string // the ldprecover binary
	work    string // this run's scratch directory, removed at exit
	seed    uint64
	seconds time.Duration
}

// errIncorrect marks a served output that differs from the reference.
var errIncorrect = errors.New("incorrect output")

func main() { os.Exit(run()) }

func run() int {
	var (
		wl      = flag.String("workload", "", "workload: report-ingest, partial-cluster")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "timed phase length in seconds (partial-cluster: its work, clusterEpochsPerSecond epochs per second)")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		bin     = flag.String("server", ".bench_build/ldprecover", "the ldprecover binary")
		workDir = flag.String("workdir", ".bench_build", "directory for per-run scratch data")
	)
	flag.Parse()
	w, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server binary: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	// Every exit path stops the servers and removes the scratch data: a
	// normal return, an error, a panic (re-raised after cleanup), or a
	// signal.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.RemoveAll(work)
		os.Exit(130)
	}()
	defer func() {
		killAll()
		os.RemoveAll(work)
	}()
	e := &env{name: *wl, bin: *bin, work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	res, err := w.run(e, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		if errors.Is(err, errIncorrect) && res != nil {
			res.Correct = false
			res.Metrics = map[string]metric{}
			printJSON(res)
		}
		return 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v (too many failed requests?)\n", *wl, name, m.Value)
			return 1
		}
	}
	printJSON(res)
	return 0
}

func printJSON(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

// printMetrics writes every metric by name with its unit, sorted.
func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s\n", title)
	for _, n := range names {
		fmt.Printf("#   %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// scratch returns a fresh directory under the run's scratch space.
func (e *env) scratch(name string) (string, error) {
	return os.MkdirTemp(e.work, name+"-")
}

// setupReps is how many times a run starts its servers to measure
// setup_s: half before the timed phase, the serving start among them,
// and half after it, so that the median spans the run.
const setupReps = 40

// timeStartups starts a workload's servers n times, each into fresh
// data directories, and stops them again. It returns each start-up's
// time: spawn until every node answers /v1/stats.
func timeStartups(launch func() ([]*server, error), n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		ss, t, err := launchTimed(launch)
		if err != nil {
			return nil, err
		}
		for _, s := range ss {
			s.kill()
		}
		times = append(times, t)
	}
	return times, nil
}

// launchTimed starts a workload's servers and times the start-up.
func launchTimed(launch func() ([]*server, error)) ([]*server, float64, error) {
	t0 := time.Now()
	ss, err := launch()
	return ss, time.Since(t0).Seconds(), err
}

// launchNode starts one server and waits until it answers /v1/stats.
func launchNode(bin string, args []string) (*server, error) {
	s, err := startServer(bin, args)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := waitReady(ctx, s); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// writeTrace saves the traced run's spans next to the build outputs.
func writeTrace(e *env, tr *tracer) (string, error) {
	path := filepath.Join(filepath.Dir(e.work), fmt.Sprintf("trace-%s-%d.json", e.name, e.seed))
	return path, tr.write(path)
}
