package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/engine"
	"suit/internal/report"
	"suit/internal/workload"
)

// table6Instructions is the per-core simulation length of the table6
// workload. Network workloads dominate a row; nginx opens with one dense
// 4.7e6-instruction AES burst and starts the next after a gap of 36e6 on
// average, so at this length every seed simulates the same one burst
// (±1 % events across seeds). At 2e7 a second burst arrives for about a
// third of the seeds and a pass's cost varies by 20–40 % with the seed.
const table6Instructions = 5_000_000

// table6Row is one row of Table 6: a chip/strategy configuration,
// labelled as cmd/suittables prints it, at one undervolt, with the
// seed it is evaluated at.
type table6Row struct {
	label string
	chip  dvfs.Chip
	kind  core.StrategyKind
	cores int
	aging bool
	seed  uint64
}

// table6Bench regenerates the 12 Table 6 rows (6 configurations × −70/−97
// mV) through core.EvaluateSuite on the process-wide engine, as
// `suittables -exp table6 -j 1` does. A job is one row.
//
// Each row is evaluated at its own seed derived from the run seed, so a
// pass averages the cost of twelve independent trace draws instead of
// reusing one draw in every row.
//
// The traced pass first runs every row's scenarios through its own
// engine (engine.New with the timing RunFunc) into a disk cache, then
// renders the table through core.EvaluateSuite reading that cache, so
// the digest is still checked on the CLI path.
type table6Bench struct {
	seed   uint64
	traced bool
	state  string
	rows   []table6Row

	// Traced passes only: the timing RunFunc, its engine and the summed
	// wall time of that engine's Run calls.
	timer      *jobTimer
	simEngine  *engine.Engine[core.Scenario, core.Outcome]
	engineWall time.Duration
}

func (b *table6Bench) setup() error {
	configs := []table6Row{
		{label: "𝒜₁  fV", chip: dvfs.IntelI9_9900K(), kind: core.KindFV, cores: 1},
		{label: "𝒜₄  fV", chip: dvfs.IntelI9_9900K(), kind: core.KindFV, cores: 4},
		{label: "𝒜∞  e", chip: dvfs.IntelI9_9900K(), kind: core.KindEmul, cores: 1},
		{label: "ℬ∞  f", chip: dvfs.AMDRyzen7700X(), kind: core.KindFreq, cores: 1},
		{label: "ℬ∞  e", chip: dvfs.AMDRyzen7700X(), kind: core.KindEmul, cores: 1},
		{label: "𝒞∞  fV", chip: dvfs.XeonSilver4208(), kind: core.KindFV, cores: 1},
	}
	for _, aging := range []bool{false, true} {
		for _, r := range configs {
			r.aging = aging
			r.seed = deriveSeed(b.seed + uint64(len(b.rows)))
			b.rows = append(b.rows, r)
		}
	}
	opts := engine.Options{Workers: 1, BaseSeed: b.seed}
	if b.traced {
		opts.CacheDir = filepath.Join(b.state, "cas")
	}
	core.SetEngineOptions(opts)
	return nil
}

func (b *table6Bench) close() {}

// scenarios lists the scenarios core.EvaluateSuite evaluates for a row:
// SPEC under the row strategy, SPEC without SIMD, and the two network
// workloads under the row strategy.
func (b *table6Bench) scenarios(r table6Row) []core.Scenario {
	mk := func(w workload.Benchmark, k core.StrategyKind) core.Scenario {
		return core.Scenario{Chip: r.chip, Bench: w, Kind: k, Cores: r.cores,
			SpendAging: r.aging, Instructions: table6Instructions, Seed: r.seed}
	}
	var scs []core.Scenario
	for _, w := range workload.SPEC() {
		scs = append(scs, mk(w, r.kind))
	}
	for _, w := range workload.SPEC() {
		scs = append(scs, mk(w, core.KindNoSIMD))
	}
	return append(scs, mk(workload.Nginx(), r.kind), mk(workload.VLC(), r.kind))
}

func (b *table6Bench) run(res *passResult) error {
	if b.traced {
		b.timer = &jobTimer{traced: true}
		b.simEngine = b.timer.newEngine(engine.Options{Workers: 1, BaseSeed: b.seed, CacheDir: filepath.Join(b.state, "cas")})
	}
	var out bytes.Buffer
	var tail string
	for half := 0; half < 2; half++ {
		offset := "−70 mV"
		if half == 1 {
			offset = "−97 mV"
		}
		t := report.NewTable(fmt.Sprintf("Table 6 (%s undervolt)", offset),
			"CPU/OS", "", "SPECgmean", "SPECmedian", "525.x264", "SPECnoSIMD", "Nginx", "VLC")
		for _, r := range b.rows[half*6 : half*6+6] {
			res.Ops++
			t0 := time.Now()
			if b.traced {
				_, err := b.simEngine.Run(context.Background(), b.scenarios(r))
				b.engineWall += time.Since(t0)
				if err != nil {
					res.Failed++
					res.problem("%s: %v", r.label, err)
					continue
				}
			}
			row, err := core.EvaluateSuite(r.chip, r.kind, r.cores, r.aging, table6Instructions, r.seed)
			d := time.Since(t0)
			if err != nil {
				res.Failed++
				res.problem("%s: %v", r.label, err)
				continue
			}
			res.ColdMS = append(res.ColdMS, float64(d)/1e6)
			t.AddRow(r.label, "Pwr", report.Pct(row.SPECGmean.Pwr), report.Pct(row.SPECMedian.Pwr),
				report.Pct(row.X264.Pwr), report.Pct(row.NoSIMD.Pwr), report.Pct(row.Nginx.Pwr), report.Pct(row.VLC.Pwr))
			t.AddRow("", "Perf", report.Pct(row.SPECGmean.Perf), report.Pct(row.SPECMedian.Perf),
				report.Pct(row.X264.Perf), report.Pct(row.NoSIMD.Perf), report.Pct(row.Nginx.Perf), report.Pct(row.VLC.Perf))
			t.AddRow("", "Eff", report.Pct(row.SPECGmean.Eff), report.Pct(row.SPECMedian.Eff),
				report.Pct(row.X264.Eff), report.Pct(row.NoSIMD.Eff), report.Pct(row.Nginx.Eff), report.Pct(row.VLC.Eff))
			if r.label == "𝒞∞  fV" && r.aging {
				tail = fmt.Sprintf("\n𝒞 fV at −97 mV spends %.1f %% of the time on the efficient curve (paper: 72.7 %%)\n",
					row.MeanEfficientShare*100)
			}
		}
		if err := t.Render(&out); err != nil {
			return err
		}
		fmt.Fprintln(&out)
	}
	out.WriteString(tail)
	sum := sha256.Sum256(out.Bytes())
	res.Digest = hex.EncodeToString(sum[:])
	return nil
}

// finish fills points, simulated instructions and the fault invariant
// after the timed work. The untraced pass re-requests every row's
// scenarios from the process-wide engine: each must be a memo hit, which
// also proves the list matches what core.EvaluateSuite ran.
func (b *table6Bench) finish(res *passResult) error {
	if b.traced {
		b.timer.finish(res, b.simEngine.Stats(), b.engineWall)
		if ran := core.EngineStats().Ran; ran != 0 {
			res.problem("core.EvaluateSuite simulated %d scenarios the traced engine did not", ran)
		}
		return nil
	}
	before := core.EngineStats()
	for _, r := range b.rows {
		outs, err := core.RunAll(b.scenarios(r))
		if err != nil {
			return err
		}
		for _, o := range outs {
			res.Points++
			res.SimInstr += float64(o.Run.Instructions + o.Base.Instructions)
			if o.Scenario.Kind != core.KindUnsafe && len(o.Run.Faults) > 0 {
				res.problem("silent fault under SUIT: %s", o.Scenario.Fingerprint())
			}
		}
	}
	if ran := core.EngineStats().Ran - before.Ran; ran != 0 {
		res.problem("%d table6 scenarios were not among those core.EvaluateSuite ran", ran)
	}
	return nil
}
