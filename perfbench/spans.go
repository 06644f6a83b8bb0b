package main

// The traced run's spans. They are recorded from the benchmark's own
// files around the calls into each layer, held in memory, and written out
// when the run ends. A span has a name, start, end, parent and request id;
// a layer's self time is its duration minus the part its children cover.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = request root
	Request string  `json:"request"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // offset from the run's first span
	EndMS   float64 `json:"end_ms"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span and returns its id. Spans with a zero bound are
// skipped (the event that would close them never fired).
func (t *tracer) add(req, name string, parent int, a, b time.Time) int {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: req, Name: name,
		StartMS: ms(a.Sub(t.t0)), EndMS: ms(b.Sub(t.t0))})
	return id
}

// explainSpans records one in-process ExplainSources call [t0, t1], cut at
// the observer's event boundaries: ingest until the last ingest event,
// then search until done (start → search-start, loop → convert, convert →
// done). What follows done is left to the call's own self time.
func (t *tracer) explainSpans(req string, c *phaseClock, t0, t1 time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	root := t.add(req, "explain", 0, t0, t1)
	t.add(req, "ingest", root, t0, c.lastIngest)
	s := t.add(req, "search", root, c.lastIngest, c.done)
	t.add(req, "search.start", s, c.lastIngest, c.start)
	t.add(req, "search.loop", s, c.start, c.conv)
	t.add(req, "search.convert", s, c.conv, c.done)
}

// median is the median duration of the spans called name.
func (t *tracer) median(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, s.EndMS-s.StartMS)
		}
	}
	return percentile(d, 50)
}

// minCoverage is the share of a traced request's wall time its top-level
// spans must cover.
const minCoverage = 0.9

// covered is the length of the union of spans' intervals within [lo, hi].
func covered(spans []span, lo, hi float64) float64 {
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		if a, b := max(s.StartMS, lo), min(s.EndMS, hi); b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, v := range iv {
		if v[1] > end {
			total += v[1] - max(v[0], end)
			end = v[1]
		}
	}
	return total
}

// children maps each span id to the spans it parents.
func (t *tracer) children() map[int][]span {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTimes reports each span name's mean self time per request: its
// duration minus the union of its children.
func (t *tracer) selfTimes(rep *report) {
	kids := t.children()
	self := map[string]float64{}
	reqs := map[string]bool{}
	for _, s := range t.spans {
		self[s.Name] += s.EndMS - s.StartMS - covered(kids[s.ID], s.StartMS, s.EndMS)
		reqs[s.Request] = true
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		// Rounding can leave a fully covered span a hair below zero.
		rep.layer("self."+n+"_ms", max(0, self[n]/float64(len(reqs))), "ms")
	}
}

// spanCoverage is the share of each request's wall time that the union
// of its top-level spans covers, over the requests whose root span has
// one name. Every span is bounded by measured events, never by a
// residual, so what is not covered is time nothing attributes.
type spanCoverage struct {
	lowest, median float64
	worst          string // the request with the lowest share
}

func (t *tracer) coverage(root string) spanCoverage {
	kids := t.children()
	c := spanCoverage{lowest: 1}
	var shares []float64
	for _, s := range t.spans {
		d := s.EndMS - s.StartMS
		if s.Parent != 0 || s.Name != root || d <= 0 {
			continue
		}
		share := covered(kids[s.ID], s.StartMS, s.EndMS) / d
		shares = append(shares, share)
		if share < c.lowest {
			c.lowest, c.worst = share, s.Request
		}
	}
	c.median = percentile(shares, 50)
	return c
}

// checkCoverage reports trace.coverage_min over the requests whose root
// span is called root, and fails the run when it is below minCoverage.
func (t *tracer) checkCoverage(rep *report, root string) {
	c := t.coverage(root)
	rep.layer("trace.coverage_min", c.lowest, "ratio")
	rep.attempted++
	if c.lowest < minCoverage {
		rep.fail(fmt.Errorf("trace: top-level spans cover %.3f of %s's wall time, below %.2f",
			c.lowest, c.worst, minCoverage))
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
