package main

// pair-cold and pair-spill: one caller in a closed loop making sequential
// Explainer.ExplainSources calls over the Figure 5 CSV pairs, in memory or
// under a memory budget.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"affidavit"
)

const (
	figure5Rows = 20000 // flight-500k base rows: ~15.4k records per snapshot
	figure5N    = 8     // pairs per run, cycled by the loop
	// figure5PerTable is how many of a run's pairs share one table.
	figure5PerTable = 2
	spillBudget     = 1 << 20 // pair-spill's WithMemBudget: ingest, blocking and convert all spill
)

// phaseClock timestamps one run's public observer events — the ingest,
// search-start, convert and done boundaries the search.* phase times come
// from — and totals its spill events per component.
type phaseClock struct {
	mu                            sync.Mutex
	lastIngest, start, conv, done time.Time
	spill                         map[string]int64
	spillParts                    int64
}

func (c *phaseClock) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastIngest, c.start, c.conv, c.done = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	c.spill = map[string]int64{}
	c.spillParts = 0
}

// Observe implements affidavit.Observer.
func (c *phaseClock) Observe(ev affidavit.Event) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case affidavit.EventIngest:
		c.lastIngest = now
	case affidavit.EventSearchStart:
		c.start = now
	case affidavit.EventConvert:
		c.conv = now
	case affidavit.EventDone:
		c.done = now
	case affidavit.EventSpill:
		c.spill[ev.Component] += ev.SpillBytes
		c.spillParts += ev.SpillParts
	}
}

// resultKey is the part of a result that must repeat byte for byte: the
// explanation and its cost. stats legitimately differs under a budget.
func resultKey(res *affidavit.Result) ([]byte, error) {
	b, err := res.JSON("")
	if err != nil {
		return nil, err
	}
	return bodyKey(b)
}

// bodyKey extracts the explanation and cost fields of a Result.JSON
// encoding, as raw bytes.
func bodyKey(body []byte) ([]byte, error) {
	var f map[string]json.RawMessage
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, err
	}
	if f["explanation"] == nil || f["cost"] == nil {
		return nil, fmt.Errorf("result has no explanation or cost")
	}
	return append(append(append([]byte(nil), f["explanation"]...), '\n'), f["cost"]...), nil
}

// checkResult applies the checks every in-process explanation must pass.
func checkResult(res *affidavit.Result) error {
	if err := res.Explanation.Validate(); err != nil {
		return fmt.Errorf("invalid explanation: %w", err)
	}
	if res.Cost > res.TrivialCost {
		return fmt.Errorf("cost %.3f exceeds trivial cost %.3f", res.Cost, res.TrivialCost)
	}
	return nil
}

func explainPair(ctx context.Context, e *affidavit.Explainer, p csvPair) (*affidavit.Result, error) {
	return e.ExplainSources(ctx, affidavit.NewCSVSource(bytes.NewReader(p.Source)),
		affidavit.NewCSVSource(bytes.NewReader(p.Target)))
}

// pairSummary is what a run keeps of a pair's first result.
type pairSummary struct {
	compression float64
	stats       affidavit.Stats
}

// pairOp is one measured explain: ms times the call, wallMS the call and
// its checks.
type pairOp struct {
	pair       int
	traced     bool
	ms, wallMS float64
}

func runPair(cfg config, spill bool) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	workers := runtime.NumCPU()
	newExplainer := func(extra ...affidavit.Option) (*affidavit.Explainer, error) {
		opts := []affidavit.Option{affidavit.WithWorkers(workers)}
		if spill {
			opts = append(opts, affidavit.WithMemBudget(spillBudget))
		}
		return affidavit.New(append(opts, extra...)...)
	}
	e, err := newExplainer()
	if err != nil {
		return nil, err
	}
	// The traced run alternates untraced calls with traced ones, which
	// also run the program's own tracing and feed the phase clock.
	clock := &phaseClock{}
	var traced *affidavit.Explainer
	if cfg.trace {
		if traced, err = newExplainer(affidavit.WithTracing(), affidavit.WithObserver(clock)); err != nil {
			return nil, err
		}
	}

	// Set-up: input generation plus one warm-up explain, repeated
	// setupReps times; setup_s is the median.
	var pairs []csvPair
	var gt genTimes
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		gt = genTimes{}
		if pairs, err = figure5Pairs(cfg.seed, figure5N, &gt); err != nil {
			return nil, err
		}
		if _, err := explainPair(ctx, e, pairs[0]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.setup(setups)

	// The loop runs whole cycles over the pairs, so every pair is measured
	// equally often.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var ops []pairOp
	refs := make([][]byte, len(pairs))
	// Each pair's first result is summarised; only pair 0's is kept whole
	// (for the unit costs), since a result holds its instance.
	firsts := make([]*pairSummary, len(pairs))
	var unitRes *affidavit.Result
	spills := make([]map[string]int64, len(pairs))
	spillParts := int64(0)
	resetPeakRSS()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		for k, p := range pairs {
			modes := []bool{false}
			if cfg.trace {
				modes = []bool{false, true}
			}
			for _, trace := range modes {
				ex := e
				if trace {
					ex = traced
					clock.reset()
				}
				t0 := time.Now()
				res, err := explainPair(ctx, ex, p)
				t1 := time.Now()
				rep.attempted++
				if err == nil {
					err = checkResult(res)
				}
				var key []byte
				if err == nil {
					key, err = resultKey(res)
				}
				if err == nil && refs[k] != nil && !bytes.Equal(key, refs[k]) {
					err = fmt.Errorf("pair %d: explanation or cost differs between repeats", k)
				}
				if err != nil {
					rep.fail(fmt.Errorf("pair %d: %w", k, err))
					continue
				}
				refs[k] = key
				ops = append(ops, pairOp{pair: k, traced: trace, ms: ms(t1.Sub(t0)), wallMS: ms(time.Since(t0))})
				rep.timeline = append(rep.timeline, [3]any{fmt.Sprintf("pair%d", k), ms(t0.Sub(start)), ms(t1.Sub(t0))})
				if firsts[k] == nil {
					firsts[k] = &pairSummary{compression: res.Cost / res.TrivialCost, stats: res.Stats}
				}
				if k == 0 && cfg.trace && unitRes == nil {
					unitRes = res
				}
				if trace {
					tr.explainSpans(fmt.Sprintf("explain-%d", len(ops)), clock, t0, t1)
					if spills[k] == nil {
						spills[k] = clock.spill
						spillParts += clock.spillParts
					}
				}
			}
		}
	}
	peak := peakRSSMB(0)

	// pair-spill's explanations must equal unbudgeted ones byte for byte;
	// the in-memory reference runs after the measured window.
	if spill {
		plain, err := affidavit.New(affidavit.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		for k, p := range pairs {
			rep.attempted++
			res, err := explainPair(ctx, plain, p)
			var key []byte
			if err == nil {
				key, err = resultKey(res)
			}
			if err == nil && !bytes.Equal(key, refs[k]) {
				err = fmt.Errorf("pair %d: budgeted explanation differs from the in-memory one", k)
			}
			if err != nil {
				rep.fail(err)
			}
		}
	}

	// Throughput is over the timed wall time of the untraced calls and
	// their checks. Every cycle explains the same pairs, so rows_per_s and
	// ops_per_s are one measurement in two units here.
	untracedMS := pairMedians(ops, false)
	busy, records, n := 0.0, 0, 0
	for _, op := range ops {
		if !op.traced {
			busy += op.wallMS / 1000
			records += pairs[op.pair].Records
			n++
		}
	}
	rep.set("explain_p50_ms", untracedMS, "ms", n)
	rep.set("rows_per_s", float64(records)/busy, "1/s", n)
	rep.set("ops_per_s", float64(n)/busy, "1/s", n)
	rep.set("peak_rss_mb", peak, "MB", 1)
	comp, nc := 0.0, 0
	for _, r := range firsts {
		if r != nil {
			comp += r.compression
			nc++
		}
	}
	if nc > 0 {
		rep.set("compression", comp/float64(nc), "ratio", nc)
	}

	if !cfg.trace {
		return rep, nil
	}
	rep.layer("datasets.build_ms", ms(gt.build), "ms")
	rep.layer("gen.generate_ms", ms(gt.generate), "ms")
	tracedMS := pairMedians(ops, true)
	rep.layer("trace.overhead_frac", tracedMS/untracedMS-1, "ratio")
	// Deterministic search counts, summed over the run's pairs.
	var st affidavit.Stats
	for _, r := range firsts {
		if r == nil {
			continue
		}
		st.Polls += r.stats.Polls
		st.StatesGenerated += r.stats.StatesGenerated
		st.Enqueued += r.stats.Enqueued
		st.Evicted += r.stats.Evicted
	}
	searchCounts(rep, st)
	searchPhases(rep, tr)
	spillCounts(rep, spills, spillParts)
	if unitRes != nil {
		if err := layerUnitCosts(rep, unitRes, pairs[0], workers); err != nil {
			return nil, err
		}
	}
	tr.selfTimes(rep)
	tr.checkCoverage(rep, "explain")
	return rep, tr.write(cfg.out("spans"))
}

// pairMedians is explain_p50_ms for a pair workload: each pair's median
// latency, averaged over the run's pairs, so that which pair happens to
// sit in the middle of the pooled samples cannot move it.
func pairMedians(ops []pairOp, traced bool) float64 {
	by := map[int][]float64{}
	for _, op := range ops {
		if op.traced == traced {
			by[op.pair] = append(by[op.pair], op.ms)
		}
	}
	var meds []float64
	for _, s := range by {
		meds = append(meds, percentile(s, 50))
	}
	return mean(meds)
}

// searchCounts reports the search layer's deterministic counters.
func searchCounts(rep *report, st affidavit.Stats) {
	rep.layer("search.polls", float64(st.Polls), "count")
	rep.layer("search.states", float64(st.StatesGenerated), "count")
	rep.layer("search.enqueued", float64(st.Enqueued), "count")
	rep.layer("search.evicted", float64(st.Evicted), "count")
	ratio := 0.0
	if st.StatesGenerated > 0 {
		ratio = float64(st.Enqueued) / float64(st.StatesGenerated)
	}
	rep.layer("search.admit_ratio", ratio, "ratio")
}

// searchPhases reports the search phase times: medians over the traced
// calls of the spans cut at the observer's event boundaries.
func searchPhases(rep *report, tr *tracer) {
	rep.layer("search.run_ms", tr.median("search"), "ms")
	rep.layer("search.start_ms", tr.median("search.start"), "ms")
	rep.layer("search.loop_ms", tr.median("search.loop"), "ms")
	rep.layer("search.convert_ms", tr.median("search.convert"), "ms")
}

// spillCounts reports KindSpill totals, summed over the run's pairs (one
// traced call each).
func spillCounts(rep *report, spills []map[string]int64, parts int64) {
	total := int64(0)
	by := map[string]int64{}
	for _, m := range spills {
		for c, b := range m {
			by[c] += b
			total += b
		}
	}
	rep.layer("spill.bytes", float64(total), "bytes")
	rep.layer("spill.partitions", float64(parts), "count")
	for _, c := range []string{"ingest", "blocking", "convert"} {
		rep.layer("spill."+c+"_bytes", float64(by[c]), "bytes")
	}
}
