package main

import (
	"context"
	"sync"
	"time"

	"suit/internal/core"
	"suit/internal/engine"
)

// layerNames lists every per-layer metric, named by module. A traced
// run reports all of them on every workload; a layer that does not run
// on the workload reads 0.
var layerNames = []struct{ name, unit string }{
	{"cpu.busy_s", "s"},
	{"cpu.sim_instr", "count"},
	{"cpu.traps", "count"},
	{"cpu.switches", "count"},
	{"cpu.deadline_fires", "count"},
	{"cpu.ns_per_kinstr", "ns"},
	{"trace.calls", "count"},
	{"trace.events", "count"},
	{"trace.busy_s", "s"},
	{"trace.ns_per_event", "ns"},
	{"core.points", "count"},
	{"core.run_s", "s"},
	{"core.trace_hits", "count"},
	{"core.trace_misses", "count"},
	{"core.trace_hit_rate", "ratio"},
	{"engine.jobs", "count"},
	{"engine.ran", "count"},
	{"engine.mem_hits", "count"},
	{"engine.disk_hits", "count"},
	{"engine.hit_rate", "ratio"},
	{"engine.self_s", "s"},
	{"engine.us_per_job", "us"},
	{"engine.retried", "count"},
	{"engine.failed", "count"},
	{"service.submits", "count"},
	{"service.coalesced", "count"},
	{"service.stored", "count"},
	{"service.rejected", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.self_ms", "ms"},
	{"service.repeat_p50_ms", "ms"},
	{"service.repeat_p90_ms", "ms"},
	{"service.jobs_per_s", "jobs/s"},
	{"uarch.calls", "count"},
	{"uarch.busy_s", "s"},
	{"uarch.ns_per_instr", "ns"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
}

// jobTimer is the engine RunFunc the benchmark installs with engine.New:
// it wraps core.RunJob, records each job's span, and accounts the
// outcome. When traced it also times trace generation: for every trace
// the job's core.Run had to build (a trace-artifact store miss), it
// regenerates one with the scenario's workload, length and per-core
// seed through workload.Benchmark.GenerateTrace, so the trace span
// comes from a call the benchmark makes itself.
type jobTimer struct {
	traced bool

	mu       sync.Mutex
	spans    []float64 // ms, in completion order
	runSpan  time.Duration
	genSpan  time.Duration
	genCalls int64
	events   int64
	instr    float64
	traps    int64
	switches int64
	fires    int64
	faults   []string
}

func (t *jobTimer) run(ctx context.Context, sc core.Scenario, seed uint64) (core.Outcome, error) {
	before := core.TraceArtifactStatsNow()
	start := time.Now()
	out, err := core.RunJob(ctx, sc, seed)
	span := time.Since(start)
	misses := core.TraceArtifactStatsNow().Misses - before.Misses

	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, float64(span)/1e6)
	t.runSpan += span
	if err != nil {
		return out, err
	}
	t.instr += float64(out.Run.Instructions + out.Base.Instructions)
	t.traps += int64(out.Run.Exceptions + out.Base.Exceptions)
	t.switches += int64(out.Run.Switches + out.Base.Switches)
	t.fires += int64(out.Run.DeadlineFires + out.Base.DeadlineFires)
	if sc.Kind != core.KindUnsafe && len(out.Run.Faults) > 0 {
		t.faults = append(t.faults, sc.Fingerprint())
	}
	if t.traced {
		// core.Run derives core i's trace seed as Seed + i·7919 + 1.
		if sc.Seed == 0 {
			sc.Seed = seed
		}
		cores := uint64(max(sc.Cores, 1))
		for i := uint64(0); i < misses; i++ {
			g0 := time.Now()
			tr, gerr := sc.Bench.GenerateTrace(sc.Instructions, sc.Seed+(i%cores)*7919+1)
			t.genSpan += time.Since(g0)
			if gerr != nil {
				return out, gerr
			}
			t.genCalls++
			t.events += int64(len(tr.Events))
		}
	}
	return out, nil
}

func (t *jobTimer) newEngine(opts engine.Options) *engine.Engine[core.Scenario, core.Outcome] {
	return engine.New(core.Scenario.Fingerprint, t.run, opts)
}

// report writes the cpu, trace and core layers. engineWall is the
// summed wall time of the engine Run calls that executed the jobs.
func (t *jobTimer) report(l map[string]float64, st engine.Stats, engineWall time.Duration, traces core.TraceArtifactStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	busy := (t.runSpan - t.genSpan).Seconds()
	l["cpu.busy_s"] = busy
	l["cpu.sim_instr"] = t.instr
	l["cpu.traps"] = float64(t.traps)
	l["cpu.switches"] = float64(t.switches)
	l["cpu.deadline_fires"] = float64(t.fires)
	if t.instr > 0 {
		l["cpu.ns_per_kinstr"] = busy * 1e9 / (t.instr / 1e3)
	}
	l["trace.calls"] = float64(t.genCalls)
	l["trace.events"] = float64(t.events)
	l["trace.busy_s"] = t.genSpan.Seconds()
	if t.events > 0 {
		l["trace.ns_per_event"] = float64(t.genSpan.Nanoseconds()) / float64(t.events)
	}
	l["core.points"] = float64(len(t.spans))
	l["core.run_s"] = t.runSpan.Seconds()
	l["core.trace_hits"] = float64(traces.Hits)
	l["core.trace_misses"] = float64(traces.Misses)
	if n := traces.Hits + traces.Misses; n > 0 {
		l["core.trace_hit_rate"] = float64(traces.Hits) / float64(n)
	}
	engineLayer(l, st)
	// The engine's own time: its Run walls minus the job spans and the
	// benchmark's trace regeneration inside them.
	self := engineWall - t.runSpan - t.genSpan
	l["engine.self_s"] = self.Seconds()
	if st.Jobs > 0 {
		l["engine.us_per_job"] = float64(self.Microseconds()) / float64(st.Jobs)
	}
}

// engineLayer writes the engine's job and cache accounting.
func engineLayer(l map[string]float64, st engine.Stats) {
	l["engine.jobs"] = float64(st.Jobs)
	l["engine.ran"] = float64(st.Ran)
	l["engine.mem_hits"] = float64(st.MemHits)
	l["engine.disk_hits"] = float64(st.DiskHits)
	l["engine.hit_rate"] = st.HitRate()
	l["engine.retried"] = float64(st.Retried)
	l["engine.failed"] = float64(st.Failed)
}

// finish copies the timer's accounting into the pass result: points,
// simulated instructions, the paper invariant (no silent fault under any
// SUIT strategy) and, for a traced pass, the layers.
func (t *jobTimer) finish(res *passResult, st engine.Stats, engineWall time.Duration) {
	t.mu.Lock()
	res.Points = len(t.spans)
	res.SimInstr = t.instr
	for _, fp := range t.faults {
		res.problem("silent fault under SUIT: %s", fp)
	}
	t.mu.Unlock()
	if res.Layers != nil {
		t.report(res.Layers, st, engineWall, core.TraceArtifactStatsNow())
	}
}
