package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"affidavit"
	"affidavit/internal/catalog"
	"affidavit/internal/jobs"
	"affidavit/internal/prom"
	"affidavit/internal/registry"
)

// maxFieldBytes caps each non-file multipart value (table name, format,
// warm flag). File parts are never buffered — they stream straight into
// the interned columnar backend — so this is the only per-part memory
// bound the server needs.
const maxFieldBytes = 1 << 20

// serverConfig bundles the service knobs so tests and main construct the
// server the same way.
type serverConfig struct {
	// options construct the server's Explainer — the one shared
	// configuration path for every explanation the service runs. Do not
	// include WithObserver here (newServer attaches the /metrics observer
	// last and would shadow it); pass extra observers via observer.
	options []affidavit.Option
	// observer, when non-nil, receives pipeline events alongside the
	// server's own MetricsObserver (e.g. the -progress narrator).
	observer affidavit.Observer
	// maxUpload caps each buffered non-file form value in bytes; 0 means
	// maxFieldBytes. File parts stream and are deliberately NOT bounded by
	// it: uploads larger than the historical -max-upload are explained
	// chunk-by-chunk without whole-snapshot buffering.
	maxUpload int64
	// maxRecords caps each streamed snapshot's record count; 0 means the
	// default of 10 million. Streaming removed the whole-body byte cap, so
	// this is one of the two guards against an endless (or hostile
	// high-cardinality) upload interning until OOM; set it to what the
	// deployment's memory can intern. Negative means unlimited.
	maxRecords int
	// maxSnapshotBytes caps each streamed snapshot's raw byte volume — the
	// companion guard to maxRecords, catching few-records-huge-fields
	// bodies that a record count cannot. 0 means the default of 1 GiB;
	// negative means unlimited.
	maxSnapshotBytes int64
	// maxInflight bounds concurrent /explain requests; 0 = unlimited.
	maxInflight int
	// timeout bounds each /explain request's explanation work; 0 means
	// unlimited. On expiry the request answers 503 with the partial search
	// statistics.
	timeout time.Duration
	// maxSessions caps the retained sessions — /explain tables and catalog
	// chains alike; 0 means unlimited. Creating a session past the cap
	// evicts the least-recently-used one.
	maxSessions int
	// sessionTTL expires sessions idle longer than this; 0 means sessions
	// never expire. Eviction frees the table's dictionary pool and warm
	// state; the next upload for that table simply starts a fresh session,
	// and the next push to an evicted chain re-seeds it from the head
	// snapshot's blob.
	sessionTTL time.Duration
	// traceBuffer caps the ring of recent run traces served by /traces;
	// 0 disables per-request tracing entirely (no recorder, no
	// X-Affidavit-Trace-Id header, ?trace=1 ignored). Negative means the
	// default of defaultTraceBuffer.
	traceBuffer int
	// pprof mounts net/http/pprof handlers under /debug/pprof/ when set.
	pprof bool
	// jobsDir roots the durable job state (-jobs-dir): the JSONL journal,
	// the content-addressed upload blobs, and the result store. Empty
	// means an in-memory job store — same queue, dedupe and cancel
	// semantics, no crash durability.
	jobsDir string
	// jobWorkers sizes the queue-draining pool (-job-workers; 0 = 2).
	// Jobs shard across workers by table hash, so one table's jobs run
	// serially in submission order and warm chains stay warm.
	jobWorkers int
	// jobRetry bounds runner executions per job, first attempt included
	// (-job-retry; 0 = 3). Only transient failures retry.
	jobRetry int
	// jobBackoff is the base retry delay, doubled per attempt (0 = the
	// pool default). Tests shrink it.
	jobBackoff time.Duration
	// catalogDir roots the snapshot-history catalog journal (-catalog-dir).
	// Empty defaults to <jobs-dir>/catalog when -jobs-dir is set, else an
	// in-memory catalog (same chain semantics, no crash durability).
	catalogDir string
	// now is the clock; nil means time.Now. Tests inject a fake. It paces
	// session eviction only — the job store keeps its own wall clock, so
	// fake-clock tests do not race with queue backoff arithmetic.
	now func() time.Time
}

// defaultTraceBuffer is the trace ring size when -trace-buffer is unset.
const defaultTraceBuffer = 128

// server routes explanation traffic onto per-table affidavit sessions: all
// uploads naming the same table share one dictionary pool (and, in chain
// mode, one warm-start tuple), so recurring traffic over the same domain
// gets cheaper as the service runs. The sessions live in one registry with
// the catalog's chains, bounded two ways — an LRU cap on their count and a
// TTL on their idleness — so neither an unbounded stream of distinct table
// names nor a growing catalog can grow the dictionary pools forever.
//
// Every session derives from one Explainer, whose observer feeds the
// Prometheus-style /metrics endpoint: ingest volume, run modes
// (cold/warm/escalated), poll and conversion counters.
type server struct {
	cfg         serverConfig
	ex          *affidavit.Explainer
	metrics     *affidavit.MetricsObserver
	maxInflight chan struct{} // nil = unlimited
	startedAt   time.Time

	// store is the durable, content-addressed job queue + result store;
	// pool drains it through runJob. Every explanation — sync or async —
	// goes through them, so both paths share dedupe and accounting.
	store *jobs.Store
	pool  *jobs.Pool
	// ingest streams /explain uploads into the store's blobs and
	// re-interns them for replayed jobs.
	ingest jobs.Ingester

	// catalog is the snapshot-history surface under /tables: registered
	// tables, pushed snapshot lineage, and the explanation chain computed
	// over each adjacent pair (chain steps run as jobs on pool).
	catalog *catalog.Service

	// engineFP is the Explainer's result-affecting option fingerprint,
	// folded into every explain job's content address so a configuration
	// change stops serving results computed under old flags.
	engineFP string

	// registry caches the warm sessions of /explain tables (namespace
	// explainNS) and of catalog chains.
	registry *registry.Registry

	// traceMu guards the bounded ring of recent run traces behind /traces.
	// traceNext is the slot the next trace overwrites once the ring is full.
	traceMu   sync.Mutex
	traces    []*affidavit.Trace
	traceNext int
}

// explainNS is the /explain path's registry namespace.
const explainNS = "explain"

func newServer(cfg serverConfig) (*server, error) {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.maxUpload <= 0 {
		cfg.maxUpload = maxFieldBytes
	}
	if cfg.maxRecords == 0 {
		cfg.maxRecords = 10_000_000
	}
	if cfg.maxSnapshotBytes == 0 {
		cfg.maxSnapshotBytes = 1 << 30
	}
	if cfg.traceBuffer < 0 {
		cfg.traceBuffer = defaultTraceBuffer
	}
	metrics := affidavit.NewMetricsObserver()
	ex, err := affidavit.New(append(append([]affidavit.Option{}, cfg.options...),
		affidavit.WithObserver(affidavit.Observers(metrics, cfg.observer)))...)
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:       cfg,
		ex:        ex,
		metrics:   metrics,
		registry:  registry.New(cfg.maxSessions, cfg.sessionTTL, cfg.now),
		startedAt: cfg.now(),
	}
	if cfg.maxInflight > 0 {
		s.maxInflight = make(chan struct{}, cfg.maxInflight)
	}
	// Open the job store (replaying the journal when -jobs-dir holds one:
	// pending and crash-orphaned jobs requeue, completed results keep
	// serving) and start the drain pool. The pool's lifetime is bound to
	// Close, not a request context, so a SIGINT requeues running jobs
	// instead of failing them.
	store, err := jobs.Open(jobs.Options{Dir: cfg.jobsDir})
	if err != nil {
		return nil, err
	}
	s.store = store
	s.ingest = jobs.Ingester{Explainer: ex, Blobs: store.Blobs(), MaxRecords: cfg.maxRecords, MaxSnapshotBytes: cfg.maxSnapshotBytes}
	s.engineFP = ex.Fingerprint()
	// The catalog must exist before the pool starts: a replayed journal
	// can hold pending catalog steps, and runJob dispatches those to it.
	catDir := cfg.catalogDir
	if catDir == "" && cfg.jobsDir != "" {
		catDir = filepath.Join(cfg.jobsDir, "catalog")
	}
	cat, err := catalog.NewService(catalog.Config{
		Dir:              catDir,
		Explainer:        ex,
		Jobs:             store,
		Sessions:         s.registry,
		MaxRecords:       cfg.maxRecords,
		MaxSnapshotBytes: cfg.maxSnapshotBytes,
		Now:              cfg.now,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	s.catalog = cat
	s.pool = jobs.NewPool(store, s.runJob, jobs.PoolOptions{
		Workers:     cfg.jobWorkers,
		MaxAttempts: cfg.jobRetry,
		Backoff:     cfg.jobBackoff,
		Timeout:     cfg.timeout,
	})
	s.pool.Start(context.Background())
	return s, nil
}

// Close drains the worker pool (running jobs are journaled back to
// pending — drain-on-shutdown persists the queue), closes the catalog
// journal (no step finishes after the pool is drained), and then closes
// the store, releasing any sync waiters.
func (s *server) Close() error {
	s.pool.Close()
	cerr := s.catalog.Close()
	if serr := s.store.Close(); serr != nil {
		return serr
	}
	return cerr
}

// session returns the /explain session for table, creating it on first
// use.
func (s *server) session(table string) *affidavit.Session {
	return s.registry.GetOrCreate(registry.Key{Namespace: explainNS, Table: table}, func() registry.Entry {
		return registry.Entry{Session: s.ex.Session(nil)}
	}).Session
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/explain", s.handleExplain)
	mux.Handle("/tables", s.catalog)
	mux.Handle("/tables/", s.catalog)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/traces/", s.handleTraces)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// storeTrace records a finished run trace in the bounded ring (oldest
// overwritten first) and feeds the duration histograms on /metrics.
func (s *server) storeTrace(tr *affidavit.Trace) {
	if tr == nil || s.cfg.traceBuffer == 0 {
		return
	}
	s.metrics.ObserveTrace(tr)
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if len(s.traces) < s.cfg.traceBuffer {
		s.traces = append(s.traces, tr)
		return
	}
	s.traces[s.traceNext] = tr
	s.traceNext = (s.traceNext + 1) % s.cfg.traceBuffer
}

// recentTraces returns the retained traces, most recent first.
func (s *server) recentTraces() []*affidavit.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	n := len(s.traces)
	out := make([]*affidavit.Trace, 0, n)
	// Before the ring wraps traceNext stays 0 and traces append in order;
	// after it wraps traceNext is the oldest slot. Either way the newest
	// trace sits at traceNext-1 (mod n) and older ones walk backwards.
	for i := 0; i < n; i++ {
		out = append(out, s.traces[((s.traceNext-1-i)%n+n)%n])
	}
	return out
}

// traceByID returns the retained trace with the given ID, or nil.
func (s *server) traceByID(id string) *affidavit.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	for _, tr := range s.traces {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// traceIndexEntry is one /traces index row: enough to pick a trace
// without shipping its spans and cost curve.
type traceIndexEntry struct {
	ID         string    `json:"id"`
	Label      string    `json:"label,omitempty"`
	StartedAt  time.Time `json:"started_at"`
	DurationMS float64   `json:"duration_ms"`
	Mode       string    `json:"mode,omitempty"`
	Polls      int       `json:"polls"`
	Cost       float64   `json:"cost"`
	Cancelled  bool      `json:"cancelled,omitempty"`
}

// handleTraces serves GET /traces (index of retained run traces, most
// recent first) and GET /traces/{id} (one full structured trace).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.traceBuffer == 0 {
		http.Error(w, "tracing disabled (-trace-buffer 0)", http.StatusNotFound)
		return
	}
	id := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/traces"), "/")
	if id == "" {
		recent := s.recentTraces()
		index := make([]traceIndexEntry, len(recent))
		for i, tr := range recent {
			index[i] = traceIndexEntry{
				ID:         tr.ID,
				Label:      tr.Label,
				StartedAt:  tr.StartedAt,
				DurationMS: tr.DurationMS,
				Mode:       tr.Mode,
				Polls:      tr.Polls.Polls,
				Cost:       tr.Cost,
				Cancelled:  tr.Cancelled,
			}
		}
		jobs.WriteJSON(w, http.StatusOK, struct {
			Traces []traceIndexEntry `json:"traces"`
		}{index})
		return
	}
	tr := s.traceByID(id)
	if tr == nil {
		http.Error(w, fmt.Sprintf("no retained trace %q (ring keeps the last %d)", id, s.cfg.traceBuffer), http.StatusNotFound)
		return
	}
	jobs.WriteJSON(w, http.StatusOK, tr)
}

// handleExplain serves POST /explain: a multipart upload with CSV files
// "source" and "target" (first row = header), streamed record-by-record
// into the interned backend — snapshots larger than memory-sized buffers
// are fine, because only distinct values and 4-byte codes are retained.
// Optional form/query values:
//
//	table   session key and SQL table name (default "table")
//	format  json (default) | sql | text
//	warm    "1" warm-starts from the table's previous explanation and
//	        stores the new one (chain mode)
//	async   "1" answers 202 Accepted with the job id immediately; poll
//	        GET /jobs/{id} and fetch GET /jobs/{id}/result
//
// Every explanation — sync or async — goes through the content-addressed
// job queue: identical snapshot pairs (same table, format and upload
// bytes) dedupe to a single computation, and a re-submission of a
// completed pair is served straight from the result store. The sync path
// is a thin submit-and-wait over the same queue; a client that
// disconnects mid-wait no longer throws the work away — the job finishes
// and its result stays fetchable under /jobs/{id}/result.
//
// The job runs under the worker pool's per-job deadline (-timeout); on
// expiry the job fails terminally and a sync waiter answers 503 Service
// Unavailable with the partial search statistics.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx := r.Context()
	if s.maxInflight != nil {
		// Wait for a slot under the request context: a client that
		// disconnects while queued must not consume a slot and pay the
		// upload ingest for an answer nobody reads.
		select {
		case s.maxInflight <- struct{}{}:
			defer func() { <-s.maxInflight }()
		case <-ctx.Done():
			http.Error(w, "request expired while queued for a slot", http.StatusServiceUnavailable)
			return
		}
	}
	// One trace recorder rides the whole submission: the streamed upload
	// ingest (ReadUpload, below) and the job's search (runJob attaches
	// the same recorder to the worker context) feed one per-run trace.
	var trec *affidavit.TraceRecorder
	ictx := ctx
	if s.cfg.traceBuffer != 0 {
		trec = affidavit.NewTraceRecorder()
		ictx = affidavit.ContextWithObserver(ctx, trec)
	}
	up, err := s.ingest.ReadUpload(ictx, r, s.cfg.maxUpload, "source", "target")
	if err != nil {
		if ctx.Err() != nil {
			http.Error(w, "request expired during upload ingest", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	value := func(k string) string { return up.Value(r, k) }
	src, tgt := up.Tables["source"], up.Tables["target"]
	srcHash, tgtHash := up.Blobs["source"], up.Blobs["target"]
	table := value("table")
	if table == "" {
		table = "table"
	}
	format := value("format")
	switch format {
	case "":
		format = "json"
	case "json", "sql", "text":
	default:
		http.Error(w, fmt.Sprintf("unknown format %q", format), http.StatusBadRequest)
		return
	}
	warm := value("warm") == "1"
	spec := jobs.Spec{
		Table:      table,
		Format:     format,
		Warm:       warm,
		SourceBlob: srcHash,
		TargetBlob: tgtHash,
		Payload:    &jobPayload{src: src, tgt: tgt, trace: trec},
	}
	if !warm {
		// The content address: canonicalized upload hashes plus every
		// option the result bytes depend on — including the engine-option
		// fingerprint, so restarting with different flags stops serving
		// results computed under the old configuration. Warm jobs depend on
		// session history too, so they never dedupe (empty address).
		spec.Addr = jobs.Address("explain/v2", s.engineFP, table, format, srcHash, tgtHash)
	}
	job, _, err := s.store.Submit(spec)
	if err != nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("X-Affidavit-Job-Id", job.ID())
	if value("async") == "1" {
		s.writeJobAccepted(w, job)
		return
	}
	rec, err := s.store.Wait(ctx, job)
	if err != nil {
		if ctx.Err() != nil {
			// The client's wait ended, not the job: it keeps running and
			// its result stays fetchable.
			http.Error(w, "request expired while waiting; poll /jobs/"+job.ID(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	s.writeJobOutcome(w, rec, value("trace") == "1")
}

type tableStats struct {
	Runs       int `json:"runs"`
	PoolAttrs  int `json:"pool_attrs"`
	PoolValues int `json:"pool_values"`
}

type statsResponse struct {
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	GoVersion     string    `json:"go_version"`
	// TracesRetained counts the run traces currently in the /traces ring.
	TracesRetained  int                   `json:"traces_retained"`
	Tables          map[string]tableStats `json:"tables"`
	SessionsEvicted int                   `json:"sessions_evicted"`
	// Jobs mirrors /metrics' affidavit_jobs_* series: queue depth,
	// running, and the lifetime submission/dedupe/outcome counters.
	Jobs jobs.Metrics `json:"jobs"`
	// Catalog mirrors /metrics' affidavit_catalog_* series: registered
	// tables, stored snapshots, and chain steps by status.
	Catalog catalog.Metrics `json:"catalog"`
	// Out-of-core totals under -mem-budget (mirrors /metrics'
	// affidavit_spill_bytes_total / affidavit_spill_partitions_total).
	SpillBytes      int64 `json:"spill_bytes_total"`
	SpillPartitions int64 `json:"spill_partitions_total"`
}

// handleStats serves GET /stats: process identity (start time, uptime, Go
// version) plus per-table /explain session counters and the lifetime
// eviction count (catalog chains included).
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	now := s.cfg.now()
	s.traceMu.Lock()
	retained := len(s.traces)
	s.traceMu.Unlock()
	out := make(map[string]tableStats)
	for name, sess := range s.registry.Sessions(explainNS) {
		attrs, values := sess.PoolStats()
		out[name] = tableStats{Runs: sess.Runs(), PoolAttrs: attrs, PoolValues: values}
	}
	spillBytes, spillParts := s.metrics.SpillTotals()
	jobs.WriteJSON(w, http.StatusOK, statsResponse{
		StartedAt:       s.startedAt,
		UptimeSeconds:   now.Sub(s.startedAt).Seconds(),
		GoVersion:       runtime.Version(),
		TracesRetained:  retained,
		Tables:          out,
		SessionsEvicted: s.registry.Evicted(),
		Jobs:            s.store.Metrics(),
		Catalog:         s.catalog.Metrics(),
		SpillBytes:      spillBytes,
		SpillPartitions: spillParts,
	})
}

// handleMetrics serves GET /metrics: the observer-fed pipeline counters
// followed by the job-subsystem and catalog gauges and counters, in fixed
// order.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.ServeHTTP(w, r)
	m := s.store.Metrics()
	c := s.catalog.Metrics()
	prom.Write(w,
		prom.Int("affidavit_jobs_queued", "gauge", "Jobs waiting in the queue.", int64(m.Queued)),
		prom.Int("affidavit_jobs_running", "gauge", "Jobs currently executing.", int64(m.Running)),
		prom.Int("affidavit_jobs_submitted_total", "counter", "Job submissions that queued a computation.", m.Submitted),
		prom.Int("affidavit_jobs_dedupe_hits_total", "counter", "Submissions served by joining an existing job.", m.DedupeHits),
		prom.Int("affidavit_jobs_completed_total", "counter", "Jobs that completed with a stored result.", m.Completed),
		prom.Int("affidavit_jobs_failed_total", "counter", "Jobs that ended in a terminal error.", m.Failed),
		prom.Int("affidavit_jobs_cancelled_total", "counter", "Jobs cancelled via DELETE /jobs/{id}.", m.Cancelled),
		prom.Int("affidavit_jobs_retried_total", "counter", "Transient failures scheduled for another attempt.", m.Retried),
		prom.Int("affidavit_jobs_requeued_total", "counter", "Runs returned to the queue by crash recovery or shutdown.", m.Requeued),
		prom.Int("affidavit_catalog_tables", "gauge", "Registered catalog tables.", int64(c.Tables)),
		prom.Int("affidavit_catalog_snapshots", "gauge", "Snapshots stored across all catalog tables.", int64(c.Snapshots)),
		prom.Int("affidavit_catalog_steps_pending", "gauge", "Chain steps queued or running.", int64(c.StepsPending)),
		prom.Int("affidavit_catalog_steps_explained", "gauge", "Chain steps with a stored explanation.", int64(c.StepsExplained)),
		prom.Int("affidavit_catalog_steps_failed", "gauge", "Chain steps that refused or failed to explain.", int64(c.StepsFailed)),
		prom.Int("affidavit_catalog_schema_resets_total", "counter", "Chain re-seeds caused by mid-chain schema changes.", c.SchemaResets),
	)
}
