package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// passResult is what one child reports for one timed pass.
type passResult struct {
	Wall     float64 `json:"wall_s"`
	Ops      int     `json:"ops"`
	Failed   int     `json:"failed"`
	Points   int     `json:"points"`
	SimInstr float64 `json:"sim_instr"`
	// ColdMS are the latencies of jobs that needed simulation, RepeatMS
	// those of exact repeats (served only). ColdKeys names each cold job
	// ("client/index") so a replay can be matched to it.
	ColdMS   []float64 `json:"cold_ms"`
	ColdKeys []string  `json:"cold_keys,omitempty"`
	RepeatMS []float64 `json:"repeat_ms,omitempty"`
	// Digest is the SHA-256 of the rendered user-visible output.
	Digest   string   `json:"digest"`
	Problems []string `json:"problems,omitempty"`
	PeakHeap float64  `json:"peak_heap_bytes"`
	Alloc    float64  `json:"alloc_bytes"`
	// Layers holds the per-layer counters and spans of a traced pass;
	// EngineMS the in-process engine time per cold served spec (replay).
	Layers   map[string]float64 `json:"layers,omitempty"`
	EngineMS map[string]float64 `json:"engine_ms,omitempty"`
}

func (p *passResult) problem(format string, args ...any) {
	p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
}

// bench is one workload inside a child process. setup builds inputs and
// constructs the program's objects; run does the timed work, including
// rendering the output the way its CLI prints it; finish does the
// untimed accounting and checks; close releases what setup started.
type bench interface {
	setup() error
	run(res *passResult) error
	finish(res *passResult) error
	close()
}

func newBench(name string, seed uint64, traced bool, state string) bench {
	s := deriveSeed(seed)
	switch name {
	case "table6":
		return &table6Bench{seed: s, traced: traced, state: state}
	case "sweep":
		return &sweepBench{seed: s, traced: traced}
	case "served":
		return &servedBench{seed: s, traced: traced, state: state}
	default:
		return &imulBench{seed: s, traced: traced}
	}
}

// childMain runs one pass: set-up, the "ready" line the parent times,
// then the timed work and the result line.
func childMain(name string, seed uint64, mode string, traced bool, state string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "perfbench child %s (%s): %v\n", name, mode, err)
		return 1
	}
	if mode == "replay" {
		r := &servedReplay{seed: deriveSeed(seed), state: state}
		fmt.Println("ready")
		res, err := r.run()
		if err != nil {
			return fail(err)
		}
		return emit(res)
	}
	b := newBench(name, seed, traced, state)
	if err := b.setup(); err != nil {
		return fail(err)
	}
	fmt.Println("ready")
	if mode == "setup" {
		b.close()
		return 0
	}

	res := &passResult{}
	if traced {
		res.Layers = map[string]float64{}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	peak := startHeapSampler()
	t0 := time.Now()
	err := b.run(res)
	res.Wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	res.PeakHeap = peak()
	if err == nil {
		err = b.finish(res)
	}
	b.close()
	if err != nil {
		return fail(err)
	}
	res.Alloc = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	if traced {
		res.Layers["gc.cycles"] = float64(ms1.NumGC - ms0.NumGC)
		res.Layers["gc.pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	}
	return emit(res)
}

func emit(res *passResult) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// startHeapSampler polls the live heap the garbage collector last
// marked, every millisecond; the returned func stops it, collects once
// more so a pass without a GC cycle still has a reading, and reports the
// peak. Live bytes, unlike heap in use, do not depend on where the GC
// pacer happened to trigger.
func startHeapSampler() func() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	var (
		mu   sync.Mutex
		peak = read()
		stop = make(chan struct{})
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				v := read()
				mu.Lock()
				peak = max(peak, v)
				mu.Unlock()
			}
		}
	}()
	return func() float64 {
		close(stop)
		<-done
		runtime.GC()
		return max(peak, read())
	}
}

// deriveSeed maps a seed to the non-zero seed every workload
// derives its inputs from (SplitMix64 finaliser).
func deriveSeed(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1
}
