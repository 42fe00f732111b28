package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"suit/internal/core"
	"suit/internal/engine"
	"suit/internal/report"
	"suit/internal/service"
	"suit/internal/units"
)

// The served stream follows the one suitd use the repository documents
// (EXPERIMENTS.md, "Served sweeps vs direct suitsweep"; DESIGN.md,
// single-flight): sweep scripts POST chip-C Table 7 sweeps with every
// other field at the spec default (2e6 instructions, −97 mV, the five
// sweep workloads, top 10) and later ask the same question again, which a
// restarted daemon answers from its result store. A full-grid POST takes
// about 5 s on a 2-vCPU host, so one pass would give one latency sample;
// each spec instead simulates a tenth of the grid.
//
// Per pass, all specs share one spec seed drawn from the run seed, and a
// seeded permutation of the grid hands out the points. Each client
// submits servedFresh fresh subsets of servedPoints points and
// servedOverlap subsets that add servedShared points of one of its
// earlier fresh subsets to servedPoints new ones (the cross-sweep
// scenario sharing DESIGN.md describes: engine cache hits for the shared
// points). Every cold spec thus simulates the same number of scenarios,
// so with the clients' jobs queueing at one executor a cold job's latency
// is about two jobs' run time and its median does not fall between
// modes. Together the cold specs cover chip C's whole grid once.
// Then the daemon drains and a new one starts on the same state dir, and
// each client re-POSTs every spec it submitted, answered from the
// persistent result store.
const (
	servedClients = 2
	servedFresh   = 3
	servedOverlap = 2
	servedPoints  = 24 // new grid points per spec: a tenth of chip C's grid
	servedShared  = 12
	// servedTimeout bounds one job; a job this late counts as failed and
	// as missing every latency limit.
	servedTimeout = 60 * time.Second
)

type servedKind int

const (
	kindFresh servedKind = iota
	kindOverlap
	kindRepeat
)

// servedJob is one submission of a client's stream. A repeat's ref is
// the stream index of the cold job it repeats.
type servedJob struct {
	kind servedKind
	spec service.Spec
	ref  int
}

func (j servedJob) cold() bool { return j.kind != kindRepeat }

// servedPlan generates both clients' streams from the run seed. Each
// stream holds the client's cold jobs, in a seeded order in which every
// overlap follows its fresh subset, then its repeats in a seeded order.
func servedPlan(seed uint64) [][]servedJob {
	rng := rand.New(rand.NewPCG(seed, 0x5e1f))
	chip, _ := core.ChipByName("C")
	grid := core.SweepGrid(chip)
	perm := rng.Perm(len(grid))
	take := func(n int) []int {
		p := perm[:n]
		perm = perm[n:]
		return p
	}
	specSeed := rng.Uint64() | 1
	spec := func(points []int) service.Spec {
		s := service.Spec{Chip: "C", Seed: specSeed, Params: make([]service.ParamSpec, len(points))}
		for i, p := range points {
			g := grid[p]
			s.Params[i] = service.ParamSpec{
				DeadlineUS:     float64(g.Deadline) / float64(units.Microseconds(1)),
				TimeSpanUS:     float64(g.TimeSpan) / float64(units.Microseconds(1)),
				MaxExceptions:  g.MaxExceptions,
				DeadlineFactor: g.DeadlineFactor,
			}
		}
		return s
	}
	plan := make([][]servedJob, servedClients)
	for c := range plan {
		var jobs []servedJob
		var fresh [][]int // points of the client's fresh subsets so far
		left := [2]int{servedFresh, servedOverlap}
		for left[0]+left[1] > 0 {
			k := kindFresh
			if len(fresh) > 0 && rng.IntN(left[0]+left[1]) >= left[0] {
				k = kindOverlap
			}
			left[k]--
			var points []int
			if k == kindFresh {
				points = take(servedPoints)
				fresh = append(fresh, points)
			} else {
				base := fresh[rng.IntN(len(fresh))]
				shared := make([]int, servedShared)
				for i, j := range rng.Perm(servedPoints)[:servedShared] {
					shared[i] = base[j]
				}
				points = append(shared, take(servedPoints)...)
			}
			jobs = append(jobs, servedJob{kind: k, spec: spec(points)})
		}
		for _, i := range rng.Perm(len(jobs)) {
			jobs = append(jobs, servedJob{kind: kindRepeat, spec: jobs[i].spec, ref: i})
		}
		plan[c] = jobs
	}
	return plan
}

// daemon is one in-process suitd lifetime: service.New on the state dir
// with one engine worker and one job executor (suitd -j 1 -exec 1, so the
// two clients' jobs queue instead of simulating side by side) and its
// Handler on a loopback listener.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
}

// startDaemon starts a daemon and waits for its first /healthz answer.
func startDaemon(state string, client *http.Client) (*daemon, error) {
	svc, err := service.New(service.Config{StateDir: state, EngineWorkers: 1, ExecJobs: 1, Retries: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain(context.Background())
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: svc.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String()}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := client.Get(d.url + "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, nil
}

// stop shuts the listener and drains the service, as suitd does on
// SIGTERM.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.served
	d.svc.Drain(ctx)
}

// servedBench runs the served stream against in-process daemons: two
// closed-loop clients that each submit a spec and wait for its terminal
// SSE event before the next. A job is one submission.
type servedBench struct {
	seed   uint64
	traced bool
	state  string

	d     *daemon
	plan  [][]servedJob
	http  *http.Client
	instr uint64 // per-scenario instructions of the normalized specs

	// ran is the first daemon's simulated scenario count, cold its
	// /metrics page before the restart (traced passes only).
	ran  int64
	cold map[string]float64
}

func (b *servedBench) setup() error {
	b.http = &http.Client{Timeout: servedTimeout}
	d, err := startDaemon(b.state, b.http)
	if err != nil {
		return err
	}
	b.d = d
	b.plan = servedPlan(b.seed)
	spec, err := b.plan[0][0].spec.Normalize()
	if err != nil {
		return err
	}
	b.instr = spec.Instructions
	return nil
}

func (b *servedBench) close() {
	if b.d != nil {
		b.d.stop()
		b.d = nil
	}
	b.http.CloseIdleConnections()
}

// clientLog is what one client observed, by stream index.
type clientLog struct {
	latency  []float64 // ms, submit to terminal
	submitMS []float64 // ms, POST round trip of cold jobs
	queueMS  []float64 // ms, POST response to the job's "running" event
	result   [][]byte  // the result body suitd returned
	ok       []bool
}

func (b *servedBench) run(res *passResult) error {
	logs := make([]clientLog, servedClients)
	for c := range logs {
		n := len(b.plan[c])
		logs[c] = clientLog{latency: make([]float64, n), result: make([][]byte, n), ok: make([]bool, n)}
	}
	t0 := time.Now()
	b.phase(logs, true)
	t1 := time.Now()
	b.ran = b.d.svc.EngineStats().Ran
	if b.traced {
		m, err := b.scrape()
		if err != nil {
			return err
		}
		b.cold = m
	}
	b.d.stop()
	b.d = nil
	d, err := startDaemon(b.state, b.http)
	if err != nil {
		return err
	}
	b.d = d
	t2 := time.Now()
	b.phase(logs, false)
	fmt.Fprintf(os.Stderr, "perfbench: served pass: cold phase %.3f s (%d specs), restart %.3f s, repeat phase %.3f s (%d specs)\n",
		t1.Sub(t0).Seconds(), servedClients*(servedFresh+servedOverlap), t2.Sub(t1).Seconds(),
		time.Since(t2).Seconds(), servedClients*(servedFresh+servedOverlap))

	var out bytes.Buffer
	for c, l := range logs {
		for i, j := range b.plan[c] {
			res.Ops++
			if !l.ok[i] {
				res.Failed++
			}
			if j.cold() {
				res.ColdMS = append(res.ColdMS, l.latency[i])
				res.ColdKeys = append(res.ColdKeys, fmt.Sprintf("%d/%d", c, i))
				if l.ok[i] {
					if err := renderServed(&out, l.result[i]); err != nil {
						res.problem("client %d job %d: %v", c, i, err)
					}
				}
			} else {
				res.RepeatMS = append(res.RepeatMS, l.latency[i])
				if l.ok[i] && !bytes.Equal(l.result[i], l.result[j.ref]) {
					res.problem("client %d job %d: repeat after restart returned other bytes than its first completion (job %d)", c, i, j.ref)
				}
			}
			if l.ok[i] {
				res.Points += len(j.spec.Params) * len(core.SweepBenchNames)
			}
		}
	}
	sum := sha256.Sum256(out.Bytes())
	res.Digest = hex.EncodeToString(sum[:])
	if res.Layers != nil {
		var submit, queue []float64
		for _, l := range logs {
			submit = append(submit, l.submitMS...)
			queue = append(queue, l.queueMS...)
		}
		res.Layers["service.submit_ms"] = median(submit)
		res.Layers["service.queue_wait_ms"] = median(queue)
	}
	return nil
}

// phase runs every client's cold jobs (cold) or repeats (!cold) against
// the current daemon, the clients side by side.
func (b *servedBench) phase(logs []clientLog, cold bool) {
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, j := range b.plan[c] {
				if j.cold() == cold {
					b.submit(j, &logs[c], i)
				}
			}
		}(c)
	}
	wg.Wait()
}

// renderServed prints a result body the way cmd/suitsweep prints the
// same sweep: the ranked settings with report.Pct efficiencies and the
// best-to-worst spread, headed by the evaluated matrix.
func renderServed(w *bytes.Buffer, body []byte) error {
	var r service.Result
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("result body: %w", err)
	}
	fmt.Fprintf(w, "%d parameter settings × %s\n", r.GridPoints, strings.Join(r.Workloads, ", "))
	t := report.NewTable(fmt.Sprintf("Top %d parameter settings (mean efficiency over %d workloads)", len(r.Points), len(r.Workloads)),
		"p_dl", "p_ts", "p_ec", "p_df", "efficiency")
	for _, p := range r.Points {
		t.AddRow(units.Microseconds(p.DeadlineUS).String(), units.Microseconds(p.TimeSpanUS).String(),
			fmt.Sprintf("%d", p.MaxExceptions), fmt.Sprintf("%.0f", p.DeadlineFactor),
			report.Pct(p.Efficiency))
	}
	t.Render(w) // a bytes.Buffer write cannot fail
	fmt.Fprintf(w, "\nbest-to-worst spread: %.2f points\n\n", r.BestToWorstSpread)
	return nil
}

// submit runs stream job i of the closed loop: POST the spec, then,
// unless the answer already carries the finished result, follow the
// job's SSE stream to its terminal event and fetch the result.
func (b *servedBench) submit(j servedJob, l *clientLog, i int) {
	t0 := time.Now()
	body, ok := b.submitOnce(j, l, t0)
	d := time.Since(t0)
	if !ok {
		d = servedTimeout // a failed job misses every latency limit
	}
	l.latency[i] = float64(d) / 1e6
	l.result[i] = body
	l.ok[i] = ok
}

// jobAnswer is the part of a job view the client reads.
type jobAnswer struct {
	ID     string          `json:"id"`
	State  service.State   `json:"state"`
	Result json.RawMessage `json:"result"`
}

func (b *servedBench) submitOnce(j servedJob, l *clientLog, t0 time.Time) ([]byte, bool) {
	spec, err := json.Marshal(j.spec)
	if err != nil {
		return nil, false
	}
	resp, err := b.http.Post(b.d.url+"/v1/sweeps", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, false
	}
	view, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	posted := time.Now()
	if j.cold() {
		l.submitMS = append(l.submitMS, float64(posted.Sub(t0))/1e6)
	}
	if err != nil || (resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK) {
		return nil, false
	}
	var v jobAnswer
	if err := json.Unmarshal(view, &v); err != nil {
		return nil, false
	}
	if resp.StatusCode == http.StatusOK && v.State == service.StateDone {
		return v.Result, len(v.Result) > 0
	}
	state, running, err := b.await(v.ID)
	if err != nil || state != service.StateDone {
		return nil, false
	}
	if j.cold() && !running.IsZero() {
		l.queueMS = append(l.queueMS, float64(running.Sub(posted))/1e6)
	}
	resp, err = b.http.Get(b.d.url + "/v1/sweeps/" + v.ID)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	final, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	v = jobAnswer{}
	if err := json.Unmarshal(final, &v); err != nil || v.State != service.StateDone {
		return nil, false
	}
	return v.Result, len(v.Result) > 0
}

// await follows a job's event stream until its terminal event and
// returns the terminal state and when the job was first seen running.
func (b *servedBench) await(id string) (service.State, time.Time, error) {
	resp, err := b.http.Get(b.d.url + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("events: %s", resp.Status)
	}
	var running time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", running, err
		}
		switch ev.State {
		case service.StateRunning:
			if running.IsZero() {
				running = time.Now()
			}
		case service.StateDone, service.StateFailed, service.StateCanceled:
			return ev.State, running, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", running, err
	}
	return "", running, errors.New("event stream ended before a terminal event")
}

func (b *servedBench) finish(res *passResult) error {
	// Every served scenario runs one core for the spec's instructions on
	// both the SUIT and the baseline machine; only the first daemon
	// simulates.
	res.SimInstr = float64(b.ran) * 2 * float64(b.instr)
	if res.Layers == nil {
		return nil
	}
	warm, err := b.scrape()
	if err != nil {
		return err
	}
	// Counters add over the two daemon lifetimes. The second daemon
	// answers from the result store and runs no engine job, so the
	// engine hit rate is the first daemon's.
	m := map[string]float64{}
	for _, s := range scrapedSeries {
		m[s] = b.cold[s] + warm[s]
	}
	m["suitd_engine_cache_hit_rate"] = b.cold["suitd_engine_cache_hit_rate"]
	l := res.Layers
	l["service.submits"] = m["suitd_submissions_total"]
	l["service.coalesced"] = m["suitd_singleflight_dedup_total"]
	l["service.stored"] = m["suitd_result_store_hits_total"]
	l["service.rejected"] = m["suitd_rejected_total"]
	l["engine.jobs"] = m["suitd_engine_scenarios_total"]
	l["engine.ran"] = m["suitd_engine_ran_total"]
	l["engine.mem_hits"] = m["suitd_engine_mem_hits_total"]
	l["engine.disk_hits"] = m["suitd_engine_disk_hits_total"]
	l["engine.hit_rate"] = m["suitd_engine_cache_hit_rate"]
	l["engine.retried"] = m["suitd_engine_retried_total"]
	l["engine.failed"] = m["suitd_engine_failed_total"]
	l["service.repeat_p50_ms"] = quantile(res.RepeatMS, 0.5)
	l["service.repeat_p90_ms"] = quantile(res.RepeatMS, 0.9)
	l["service.jobs_per_s"] = float64(res.Ops-res.Failed) / res.Wall
	return nil
}

// scrapedSeries are the /metrics series the traced pass reads.
var scrapedSeries = []string{
	"suitd_submissions_total", "suitd_singleflight_dedup_total", "suitd_result_store_hits_total",
	"suitd_rejected_total", "suitd_engine_scenarios_total", "suitd_engine_ran_total",
	"suitd_engine_mem_hits_total", "suitd_engine_disk_hits_total", "suitd_engine_cache_hit_rate",
	"suitd_engine_retried_total", "suitd_engine_failed_total",
}

// scrape reads the current daemon's /metrics page.
func (b *servedBench) scrape() (map[string]float64, error) {
	resp, err := b.http.Get(b.d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	all := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			all[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range scrapedSeries {
		v, ok := all[s]
		if !ok {
			return nil, fmt.Errorf("/metrics lacks %s", s)
		}
		out[s] = v
	}
	return out, nil
}

// servedReplay re-runs, in a fresh process, the scenarios of every cold
// spec of the served stream through an in-process engine built like the
// service's (engine.New, disk cache, the timing RunFunc), client by
// client in stream order. It gives the cpu, trace and core layers of the
// served work and each spec's in-process engine time.
type servedReplay struct {
	seed  uint64
	state string
}

func (r *servedReplay) run() (*passResult, error) {
	timer := &jobTimer{traced: true}
	eng := timer.newEngine(engine.Options{Workers: 1, CacheDir: filepath.Join(r.state, "cas"), Retries: 1})
	res := &passResult{Layers: map[string]float64{}, EngineMS: map[string]float64{}}
	var wall time.Duration
	for c, jobs := range servedPlan(r.seed) {
		for i, j := range jobs {
			if !j.cold() {
				continue
			}
			spec, err := j.spec.Normalize()
			if err != nil {
				return nil, err
			}
			scs, _, err := spec.Scenarios()
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			_, err = eng.Run(context.Background(), scs)
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			wall += d
			res.EngineMS[fmt.Sprintf("%d/%d", c, i)] = float64(d) / 1e6
		}
	}
	timer.finish(res, eng.Stats(), wall)
	return res, nil
}

// mergeReplay folds a replay into the traced served pass: the cpu,
// trace and core layers and the engine's own time come from the replay,
// the engine counters from the daemons' /metrics, and service.self_ms is
// the median over cold specs of served latency minus the replay's
// engine time for the same spec.
func mergeReplay(p, r *passResult) {
	for k, v := range r.Layers {
		if strings.HasPrefix(k, "cpu.") || strings.HasPrefix(k, "trace.") || strings.HasPrefix(k, "core.") ||
			k == "engine.self_s" || k == "engine.us_per_job" {
			p.Layers[k] = v
		}
	}
	p.Problems = append(p.Problems, r.Problems...)
	var self []float64
	for i, key := range p.ColdKeys {
		if e, ok := r.EngineMS[key]; ok {
			self = append(self, p.ColdMS[i]-e)
		}
	}
	p.Layers["service.self_ms"] = median(self)
}
