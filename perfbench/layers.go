package main

// Per-layer unit costs on a frozen state: each layer's public call timed
// on the workload's own instance, after a run has explained it.

import (
	"bytes"
	"context"
	"math/rand"
	"time"

	"affidavit"
	"affidavit/internal/align"
	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/induce"
	"affidavit/internal/metafunc"
	"affidavit/internal/search"
)

// unitReps is how many times each unit cost is measured; the median counts.
const unitReps = 3

// timeIt runs f unitReps times and returns the median wall time in ms.
func timeIt(f func()) float64 {
	d := make([]float64, unitReps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = ms(time.Since(t0))
	}
	return percentile(d, 50)
}

// layerUnitCosts times ingest, delta, blocking, induce and align on res's
// instance (p holds the same pair's CSV bytes):
//   - ingest: Explainer.ReadSource of both snapshots
//   - delta: NewInstance over the ingested tables; BuildCtx of the run's
//     final function tuple
//   - blocking: New(inst).Refine(a, identity) once per attribute — the
//     H^id start — and Indeterminacy of the next attribute on each
//   - induce: Candidates for the next attribute on those blockings
//   - align: Random followed by GreedyMap on those blockings; overlap is
//     ComputeOverlap over the instance, the H^s start
func layerUnitCosts(rep *report, res *affidavit.Result, p csvPair, workers int) error {
	ctx := context.Background()
	inst, funcs := res.Explanation.Inst, res.Explanation.Funcs

	plain, err := affidavit.New(affidavit.WithWorkers(workers))
	if err != nil {
		return err
	}
	var ingestErr error
	ingestMS := timeIt(func() {
		for _, b := range [][]byte{p.Source, p.Target} {
			if _, err := plain.ReadSource(ctx, affidavit.NewCSVSource(bytes.NewReader(b))); err != nil {
				ingestErr = err
			}
		}
	})
	if ingestErr != nil {
		return ingestErr
	}
	rep.layer("ingest.ms", ingestMS, "ms")
	rep.layer("ingest.records_per_s", float64(p.Records)/(ingestMS/1000), "1/s")
	dictValues := 0
	for _, n := range inst.Coded().Base {
		dictValues += int(n)
	}
	rep.layer("ingest.dict_values", float64(dictValues), "count")

	var instErr error
	rep.layer("delta.instance_ms", timeIt(func() {
		var in *delta.Instance
		if in, instErr = delta.NewInstance(inst.Source, inst.Target, inst.Metas); instErr == nil {
			in.Coded() // the interned view is built lazily
		}
	}), "ms")
	if instErr != nil {
		return instErr
	}
	var built *delta.Explanation
	var buildErr error
	rep.layer("delta.build_ms", timeIt(func() {
		built, buildErr = delta.BuildCtx(ctx, inst, funcs, delta.BuildOptions{Workers: workers})
	}), "ms")
	if buildErr != nil {
		return buildErr
	}
	rep.layer("delta.core_rows", float64(built.CoreSize()), "count")

	d := inst.NumAttrs()
	next := func(a int) int { return (a + 1) % d }
	var refined []*blocking.Result
	rep.layer("blocking.refine_ms", timeIt(func() {
		refined = refined[:0]
		for a := 0; a < d; a++ {
			r := blocking.New(inst).WithWorkers(workers).Refine(a, metafunc.Identity{})
			r.NumBlocks() // Refine is lazy; force it inside the timing
			refined = append(refined, r)
		}
	}), "ms")
	rep.layer("blocking.refine_calls", float64(d), "count")
	mixed := 0
	for _, r := range refined {
		mixed += len(r.MixedBlocks())
	}
	rep.layer("blocking.mixed_blocks", float64(mixed), "count")
	rep.layer("blocking.indeterminacy_ms", timeIt(func() {
		for a, r := range refined {
			r.Indeterminacy(next(a))
		}
	}), "ms")

	opts := search.DefaultOptions()
	cands := 0
	rep.layer("induce.candidates_ms", timeIt(func() {
		cands = 0
		for a, r := range refined {
			rng := rand.New(rand.NewSource(int64(a)))
			cands += len(induce.Candidates(r, next(a), inst.Metas, opts.Induce, opts.Beta, rng))
		}
	}), "ms")
	rep.layer("induce.candidates_calls", float64(d), "count")
	rep.layer("induce.candidates", float64(cands), "count")

	rep.layer("align.greedymap_ms", timeIt(func() {
		for a, r := range refined {
			rng := rand.New(rand.NewSource(int64(a)))
			align.GreedyMap(inst, align.Random(r, rng), next(a))
		}
	}), "ms")
	// The H^s start's overlap is off the default (H^id) path and slow on
	// large instances, so it is timed once.
	t0 := time.Now()
	align.ComputeOverlap(inst, opts.MaxBlockSize)
	rep.layer("align.overlap_ms", ms(time.Since(t0)), "ms")
	return nil
}
