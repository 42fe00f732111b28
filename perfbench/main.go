// Command perfbench is the repository's same-host benchmark. One
// invocation runs one named workload for a fixed measuring time and
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1):
//
//	bash perfbench/run.sh --workload sweep --seed 3 --seconds 20 --trace 0
//
// Every timed pass runs in a fresh child process with a fresh state
// directory, so each pass sees the cold process-wide caches (trace
// artifacts, IMUL memo, engine memo) a user's first run sees. The parent
// only spawns children, times their set-up, and aggregates medians.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// Workload names, in BENCHMARK.json order.
var workloadNames = []string{"table6", "sweep", "served", "imul_study"}

// childTimeout bounds one child process. A pass of any workload takes a
// few seconds on a 2-vCPU host, so a child this late has hung; the bound
// keeps a run with a hung pass (and its served replay) under 3 minutes.
const childTimeout = 60 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
}

func main() {
	var (
		child    = flag.Bool("child", false, "internal: run one pass in this process")
		mode     = flag.String("mode", "pass", "internal (child): pass, setup or replay")
		state    = flag.String("state", "", "internal (child): state directory")
		wl       = flag.String("workload", "", "workload: table6, sweep, served or imul_study")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measuring time in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from traced passes")
		root     = flag.String("root", ".", "checkout root; state dirs go under <root>/.bench_build")
		digestOf = flag.Bool("print-digest", false, "run one untraced pass and print its output digest")
	)
	flag.Parse()
	if !slices.Contains(workloadNames, *wl) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (known: %v)\n", *wl, workloadNames)
		os.Exit(2)
	}
	if *child {
		os.Exit(childMain(*wl, *seed, *mode, *trace == 1, *state))
	}
	o := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root}
	if *digestOf {
		p, _, err := spawn(o, "pass", false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(p.Digest)
		return
	}
	if err := runParent(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runParent(o options) error {
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	start := time.Now()

	// Timed passes until the measuring time is used up. A traced run
	// alternates untraced and traced passes so it can report the
	// tracing overhead against the same host state. An untraced run
	// starts a set-up-only child before every pass, so the set-up
	// samples (those children and the passes' own set-up) are spread
	// over the whole run instead of sharing one host phase.
	var (
		plain, traced []*passResult
		setups        []float64
	)
	budget := time.Duration(o.seconds * float64(time.Second))
	var last time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= 2 && elapsed+last > budget {
			break
		}
		withTrace := o.trace && i%2 == 1
		t0 := time.Now()
		if !o.trace {
			_, d, err := spawn(o, "setup", false)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		p, d, err := spawn(o, "pass", withTrace)
		if err != nil {
			return err
		}
		if withTrace {
			if o.workload == "served" {
				r, _, err := spawn(o, "replay", true)
				if err != nil {
					return err
				}
				mergeReplay(p, r)
			}
			traced = append(traced, p)
		} else {
			setups = append(setups, d.Seconds())
			plain = append(plain, p)
		}
		last = time.Since(t0)
	}

	all := append(append([]*passResult(nil), plain...), traced...)
	res := resultLine{Correct: true, Metrics: map[string]metric{}}
	want, shipped := expectedDigest(o.workload, o.seed)
	for _, p := range all {
		res.Attempted += p.Ops
		res.Failed += p.Failed
		for _, msg := range p.Problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, msg)
		}
		bad := len(p.Problems) > 0 || p.Digest != all[0].Digest || (shipped && p.Digest != want)
		if bad {
			res.Correct = false
		}
	}
	if !res.Correct {
		// A wrong output fails every operation of the run.
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: output check failed (digest %s, shipped %q)\n",
			o.workload, o.seed, all[0].Digest, want)
		res.Failed = res.Attempted
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if !shipped {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d has no shipped digest; checked invariants and pass-to-pass identity only\n",
			o.workload, o.seed)
	}

	if o.trace {
		layerMetrics(res.Metrics, plain, traced)
	} else {
		endToEnd(res.Metrics, plain, setups)
	}
	summarize(o, plain, traced, setups)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd fills the end-to-end metrics: medians over the untraced
// passes, latency percentiles over the samples pooled from all passes.
func endToEnd(m map[string]metric, plain []*passResult, setups []float64) {
	per := func(f func(p *passResult) float64) float64 {
		xs := make([]float64, len(plain))
		for i, p := range plain {
			xs[i] = f(p)
		}
		return median(xs)
	}
	var cold []float64
	for _, p := range plain {
		cold = append(cold, p.ColdMS...)
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["wall_s"] = metric{per(func(p *passResult) float64 { return p.Wall }), "s"}
	m["points_per_s"] = metric{per(func(p *passResult) float64 { return float64(p.Points) / p.Wall }), "points/s"}
	m["sim_mips"] = metric{per(func(p *passResult) float64 { return p.SimInstr / p.Wall / 1e6 }), "Minstr/s"}
	m["cold_job_p50_ms"] = metric{quantile(cold, 0.50), "ms"}
	m["cold_job_p90_ms"] = metric{quantile(cold, 0.90), "ms"}
	m["peak_heap_mb"] = metric{per(func(p *passResult) float64 { return p.PeakHeap / (1 << 20) }), "MiB"}
	m["alloc_mb"] = metric{per(func(p *passResult) float64 { return p.Alloc / (1 << 20) }), "MiB"}
}

// layerMetrics fills the per-layer metrics: the median of each counter
// or span over the traced passes, every name present (0 where the layer
// does not run on this workload), plus the tracing overhead.
func layerMetrics(m map[string]metric, plain, traced []*passResult) {
	for _, l := range layerNames {
		xs := make([]float64, len(traced))
		for i, p := range traced {
			xs[i] = p.Layers[l.name]
		}
		m[l.name] = metric{median(xs), l.unit}
	}
	walls := func(ps []*passResult) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = p.Wall
		}
		return median(xs)
	}
	u, t := walls(plain), walls(traced)
	m["tracing.untraced_wall_s"] = metric{u, "s"}
	m["tracing.traced_wall_s"] = metric{t, "s"}
	m["tracing.overhead_pct"] = metric{(t/u - 1) * 100, "%"}
}

// summarize prints a human-readable account, with sample counts, to
// standard error.
func summarize(o options, plain, traced []*passResult, setups []float64) {
	var cold, rep int
	for _, p := range plain {
		cold += len(p.ColdMS)
		rep += len(p.RepeatMS)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d untraced + %d traced passes, %d set-up samples, %d cold-job and %d repeat samples; GOMAXPROCS %d, NumCPU %d, %s\n",
		o.workload, o.seed, len(plain), len(traced), len(setups), cold, rep, childProcs(), runtime.NumCPU(), runtime.Version())
}

// childProcs is the GOMAXPROCS every child runs with: the host's CPU
// count, capped at 2 so the load stays the same on larger hosts.
func childProcs() int {
	return min(runtime.NumCPU(), 2)
}

// spawn runs one child: it times the set-up (process start until the
// child reports ready) and returns the pass result the child prints as
// its last line.
func spawn(o options, mode string, withTrace bool) (*passResult, time.Duration, error) {
	base := filepath.Join(o.root, ".bench_build", "state")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, 0, err
	}
	state, err := os.MkdirTemp(base, o.workload+"-")
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		// Flush what the pass wrote (and the removal) to disk before the
		// next pass starts, so no pass pays for its predecessor's
		// writeback.
		os.RemoveAll(state)
		syscall.Sync()
	}()
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	tr := "0"
	if withTrace {
		tr = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-mode", mode, "-trace", tr, "-state", state)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	timer := time.AfterFunc(childTimeout, func() { cmd.Process.Kill() })
	defer timer.Stop()

	rd := bufio.NewReader(out)
	first, err := rd.ReadString('\n')
	setup := time.Since(t0)
	if err != nil || first != "ready\n" {
		io.Copy(io.Discard, rd)
		cmd.Wait()
		return nil, 0, fmt.Errorf("%s child (%s) did not become ready: %q %v", o.workload, mode, first, err)
	}
	rest, readErr := io.ReadAll(rd)
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("%s child (%s): %w", o.workload, mode, err)
	}
	if readErr != nil {
		return nil, 0, readErr
	}
	if mode == "setup" {
		return nil, setup, nil
	}
	// After "ready" a child prints only its result line.
	var p passResult
	if err := json.Unmarshal(rest, &p); err != nil {
		return nil, 0, fmt.Errorf("%s child (%s): bad result: %w", o.workload, mode, err)
	}
	return &p, setup, nil
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
