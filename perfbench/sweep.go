package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"suit/internal/core"
	"suit/internal/dvfs"
	"suit/internal/engine"
	"suit/internal/metrics"
	"suit/internal/report"
	"suit/internal/strategy"
)

// sweepInstructions is the per-point simulation length of the sweep
// workload: the repository's smoke length (the suitd spec default and
// the length CI's smoke sweeps run at).
const sweepInstructions = 2_000_000

// sweepPoints is how many of a chip's 240 Table 7 grid points one pass
// ranks: a seeded half, which keeps a pass near 5 s at smoke length.
const sweepPoints = 120

// sweepChip is one chip's Table 7 search: its grid and scenarios.
type sweepChip struct {
	chip dvfs.Chip
	grid []strategy.Params
	scs  []core.Scenario
}

// sweepBench runs a seeded half of the Table 7 grid × core.SweepBenches
// on all three chips at −97 mV, one engine worker, and ranks each chip's
// points like cmd/suitsweep. It builds the engine with engine.New around the timing
// RunFunc (as suitd builds its engine around core.RunJob), so a job is
// one grid point (its five workloads).
type sweepBench struct {
	seed   uint64
	traced bool

	chips []sweepChip
	timer *jobTimer
	eng   *engine.Engine[core.Scenario, core.Outcome]
	wall  time.Duration
}

func (b *sweepBench) setup() error {
	benches, err := core.SweepBenches()
	if err != nil {
		return err
	}
	for _, letter := range core.ChipLetters() {
		chip, err := core.ChipByName(letter)
		if err != nil {
			return err
		}
		c := sweepChip{chip: chip, grid: sweepSubset(core.SweepGrid(chip), b.seed)}
		for i := range c.grid {
			for _, w := range benches {
				c.scs = append(c.scs, core.Scenario{
					Chip: chip, Bench: w, Kind: core.KindFV,
					SpendAging: true, Instructions: sweepInstructions,
					Params: &c.grid[i], // Seed 0: the engine derives the per-point seed
				})
			}
		}
		b.chips = append(b.chips, c)
	}
	b.timer = &jobTimer{traced: b.traced}
	b.eng = b.timer.newEngine(engine.Options{Workers: 1, BaseSeed: b.seed})
	return nil
}

func (b *sweepBench) close() {}

func (b *sweepBench) run(res *passResult) error {
	var out bytes.Buffer
	for _, c := range b.chips {
		t0 := time.Now()
		outs, err := b.eng.Run(context.Background(), c.scs)
		b.wall += time.Since(t0)
		res.Ops += len(c.grid)
		if err != nil {
			res.Failed += len(c.grid)
			res.problem("chip %s: %v", c.chip.Name, err)
			continue
		}
		renderRanking(&out, c, outs)
	}
	sum := sha256.Sum256(out.Bytes())
	res.Digest = hex.EncodeToString(sum[:])
	return nil
}

// sweepSubset picks sweepPoints of the grid from the seed, in grid
// order.
func sweepSubset(grid []strategy.Params, seed uint64) []strategy.Params {
	keep := rand.New(rand.NewPCG(seed, 0x5eed)).Perm(len(grid))[:sweepPoints]
	sort.Ints(keep)
	sub := make([]strategy.Params, len(keep))
	for i, k := range keep {
		sub[i] = grid[k]
	}
	return sub
}

// finish accounts the pass. The job latency is one grid point's: the
// spans of its workloads' scenarios, which the single engine worker runs
// back to back in spec order.
func (b *sweepBench) finish(res *passResult) error {
	b.timer.finish(res, b.eng.Stats(), b.wall)
	b.timer.mu.Lock()
	defer b.timer.mu.Unlock()
	nb := len(core.SweepBenchNames)
	for i := 0; i+nb <= len(b.timer.spans); i += nb {
		var ms float64
		for _, s := range b.timer.spans[i : i+nb] {
			ms += s
		}
		res.ColdMS = append(res.ColdMS, ms)
	}
	return nil
}

// renderRanking prints one chip's full ranking as cmd/suitsweep prints
// its top-N table: mean efficiency over the workloads per grid point,
// ties in grid order.
func renderRanking(w *bytes.Buffer, c sweepChip, outs []core.Outcome) {
	nb := len(outs) / len(c.grid)
	type point struct {
		p   strategy.Params
		eff float64
	}
	points := make([]point, len(c.grid))
	for i := range c.grid {
		effs := make([]float64, nb)
		for j := range effs {
			effs[j] = outs[i*nb+j].Efficiency
		}
		mean, _ := metrics.Mean(effs)
		points[i] = point{c.grid[i], mean}
	}
	sort.SliceStable(points, func(i, j int) bool { return points[i].eff > points[j].eff })
	t := report.NewTable(fmt.Sprintf("%s: %d parameter settings (mean efficiency over %d workloads)", c.chip.Name, len(points), nb),
		"p_dl", "p_ts", "p_ec", "p_df", "efficiency")
	for _, r := range points {
		t.AddRow(r.p.Deadline.String(), r.p.TimeSpan.String(),
			fmt.Sprintf("%d", r.p.MaxExceptions), fmt.Sprintf("%.0f", r.p.DeadlineFactor),
			report.Pct(r.eff))
	}
	t.Render(w) // a bytes.Buffer write cannot fail
	fmt.Fprintf(w, "\nbest-to-worst spread: %.2f points\n\n", (points[0].eff-points[len(points)-1].eff)*100)
}
