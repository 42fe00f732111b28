package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"time"

	"suit/internal/isa"
	"suit/internal/report"
	"suit/internal/uarch"
	"suit/internal/workload"
)

// imulInstructions is the per-call length of the out-of-order model,
// two thirds of `suittables -exp fig14 -quick`.
const imulInstructions = 100_000

// imulLatencies are the Fig 14 IMUL latencies.
var imulLatencies = []int{4, 5, 6, 15, 30}

// imulMix is one workload's instruction mix with the seed it is
// simulated at.
type imulMix struct {
	mix  map[isa.Opcode]float64
	seed uint64
}

// imulBench is the Fig 14 IMUL latency study: uarch.Slowdown over the 23
// SPEC mixes plus 525.x264 at every latency, rendered as the two CSV
// series `suittables -exp fig14` prints. A job is one Slowdown call.
//
// The model's cost per instruction depends on the random stream, so one
// seed for every call would make a pass's cost vary with the seed by
// more than 10 %. Each mix gets its own seed derived from the run seed
// instead, the same at every latency, and 525.x264's series reuses its
// SPEC seed, so its points repeat the SPEC calls as in the CLI.
type imulBench struct {
	seed   uint64
	traced bool

	cfg  uarch.Config
	spec []imulMix
	x264 imulMix
	busy time.Duration
}

func (b *imulBench) setup() error {
	b.cfg = uarch.DefaultConfig()
	found := false
	for i, w := range workload.SPEC() {
		m := imulMix{mix: w.Mix(), seed: deriveSeed(b.seed + uint64(i))}
		b.spec = append(b.spec, m)
		if w.Name == "525.x264" {
			b.x264, found = m, true
		}
	}
	if !found {
		return errors.New("SPEC suite lacks 525.x264")
	}
	return nil
}

func (b *imulBench) close() {}

func (b *imulBench) slowdown(res *passResult, m imulMix, lat int) float64 {
	res.Ops++
	t0 := time.Now()
	s, err := uarch.Slowdown(b.cfg, m.mix, imulInstructions, m.seed, lat)
	d := time.Since(t0)
	b.busy += d
	if err != nil {
		res.Failed++
		res.problem("latency %d: %v", lat, err)
		return 0
	}
	res.ColdMS = append(res.ColdMS, float64(d)/1e6)
	return s
}

func (b *imulBench) run(res *passResult) error {
	geo := report.Series{Name: "Fig 14: geomean slowdown", XLabel: "imul_latency", YLabel: "slowdown_pct"}
	xs := report.Series{Name: "Fig 14: 525.x264 slowdown", XLabel: "imul_latency", YLabel: "slowdown_pct"}
	for _, lat := range imulLatencies {
		var sumLog float64
		for _, m := range b.spec {
			sumLog += math.Log1p(b.slowdown(res, m, lat))
		}
		geo.Add(float64(lat), math.Expm1(sumLog/float64(len(b.spec)))*100)
		xs.Add(float64(lat), b.slowdown(res, b.x264, lat)*100)
	}
	var out bytes.Buffer
	for _, s := range []*report.Series{&geo, &xs} {
		if err := s.WriteCSV(&out); err != nil {
			return err
		}
	}
	sum := sha256.Sum256(out.Bytes())
	res.Digest = hex.EncodeToString(sum[:])
	return nil
}

func (b *imulBench) finish(res *passResult) error {
	// Slowdown simulates the mix twice: at the stock and the given latency.
	instr := float64(len(res.ColdMS)) * 2 * imulInstructions
	res.Points = len(res.ColdMS)
	res.SimInstr = instr
	if res.Layers != nil {
		res.Layers["uarch.calls"] = float64(len(res.ColdMS))
		res.Layers["uarch.busy_s"] = b.busy.Seconds()
		res.Layers["uarch.ns_per_instr"] = float64(b.busy.Nanoseconds()) / instr
	}
	return nil
}
