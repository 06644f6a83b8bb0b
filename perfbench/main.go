// Command perfbench is the repository benchmark: it generates its inputs
// from a seed, drives one workload through affidavit's public surfaces
// (the in-process Explainer, or affidavitd over HTTP), checks every
// output, and prints every metric by name with its unit and sample count.
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics) for tools that compare runs.
//
// Run it through run.py, which builds this program and affidavitd with
// -pgo=default.pgo first:
//
//	python3 perfbench/run.py --workload pair-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // affidavitd binary
	work     string // scratch directory for daemon state
	results  string // directory for result and span files
	pgo      string // PGO build mode, for provenance
	commit   string // source revision, for provenance
}

// out names one of the run's output files.
func (c config) out(kind string) string {
	return filepath.Join(c.results, fmt.Sprintf("%s-seed%d-trace%d.%s.json", c.workload, c.seed, b2i(c.trace), kind))
}

// spec is the part of BENCHMARK.json the program needs: the metric lists
// that the final JSON line must carry.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.daemon, "affidavitd", "", "affidavitd binary (daemon-mix)")
	flag.StringVar(&cfg.work, "work", "", "scratch directory")
	flag.StringVar(&cfg.results, "results", "", "result file directory")
	flag.StringVar(&cfg.pgo, "pgo", "", "PGO build mode, recorded in the result file")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision, recorded in the result file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchFile is the benchmark definition, at the checkout root the program
// runs from.
const benchFile = "BENCHMARK.json"

// layers names the per-layer metric prefixes each workload exercises. A
// traced run fails when one of their metrics was not measured.
var layers = map[string][]string{
	"pair-cold":  {"datasets", "gen", "ingest", "delta", "blocking", "induce", "align", "search", "trace"},
	"pair-spill": {"datasets", "gen", "ingest", "delta", "blocking", "induce", "align", "search", "spill", "trace"},
	"daemon-mix": {"datasets", "gen", "ingest", "delta", "blocking", "induce", "align", "search",
		"jobs", "affidavitd", "trace"},
}

// mayBeZero lists the per-layer metrics that legitimately read 0 on a
// workload that exercises their layer; any other 0 means "not measured".
var mayBeZero = map[string]bool{
	"search.evicted":      true,
	"jobs.retried":        true,
	"jobs.failed":         true,
	"trace.overhead_frac": true,
}

func run(cfg config) error {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", benchFile, err)
	}
	if cfg.seconds < 1 || cfg.work == "" || cfg.results == "" {
		return fmt.Errorf("need -seconds ≥ 1, -work and -results")
	}
	for _, d := range []string{cfg.work, cfg.results} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	var rep *report
	switch cfg.workload {
	case "pair-cold":
		rep, err = runPair(cfg, false)
	case "pair-spill":
		rep, err = runPair(cfg, true)
	case "daemon-mix":
		rep, err = runDaemon(cfg)
	default:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}
	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
	}
	return rep.emit(cfg, want)
}

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report collects a run's metrics, failures and spans.
type report struct {
	attempted, failed int
	errors            []string
	metrics           map[string]metric
	order             []string
	// timeline lists every measured operation (name, start offset and
	// latency in ms) for the result file.
	timeline [][3]any
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric with its sample count.
func (r *report) set(name string, v float64, unit string, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, Samples: n}
}

// layer records a per-layer metric.
func (r *report) layer(name string, v float64, unit string) { r.set(name, v, unit, 1) }

// timing records the p-th percentile of samples (milliseconds).
func (r *report) timing(name string, samples []float64, p float64) {
	r.set(name, percentile(samples, p), "ms", len(samples))
}

// setup records setup_s as the median of the run's set-up repetitions.
func (r *report) setup(secs []float64) { r.set("setup_s", percentile(secs, 50), "s", len(secs)) }

// fail counts one failed or mismatched operation.
func (r *report) fail(err error) {
	r.failed++
	if len(r.errors) < 20 {
		r.errors = append(r.errors, err.Error())
	}
}

// emit prints the human-readable table, writes the result file and prints
// the JSON line. A failed check or a missing metric is an error after
// everything has been printed and written.
func (r *report) emit(cfg config, want []metricSpec) error {
	if r.attempted > 0 {
		r.set("failed_frac", float64(r.failed)/float64(r.attempted), "ratio", r.attempted)
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d (%s)\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("  %-32s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, e := range r.errors {
		fmt.Println("  FAILED:", e)
	}

	var missing []string
	out := map[string]map[string]any{}
	for _, w := range want {
		m, ok := r.metrics[w.Name]
		if !mayBeZero[w.Name] && m.Value == 0 {
			// End-to-end metrics are never 0, nor are most per-layer ones
			// on a workload that runs their layer: 0 means not measured.
			ok = false
		}
		if !ok {
			layer, _, _ := strings.Cut(w.Name, ".")
			if !cfg.trace || slices.Contains(layers[cfg.workload], layer) {
				missing = append(missing, w.Name)
				continue
			}
			// The layers this workload never runs read 0.
			m = metric{Unit: w.Unit}
		}
		out[w.Name] = map[string]any{"value": m.Value, "unit": w.Unit}
	}
	sort.Strings(missing)

	file := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"provenance": provenance(cfg),
		"attempted":  r.attempted,
		"failed":     r.failed,
		"errors":     r.errors,
		"metrics":    r.metrics,
		"timeline":   r.timeline,
	}
	if err := writeJSON(cfg.out("result"), file); err != nil {
		return err
	}
	correct := r.failed == 0 && len(missing) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if r.failed > 0 {
		return fmt.Errorf("%d of %d operations failed their checks", r.failed, r.attempted)
	}
	return nil
}

// provenance describes the machine and build a result came from.
func provenance(cfg config) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"seed":       cfg.seed,
		"commit":     cfg.commit,
		"pgo":        cfg.pgo,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
