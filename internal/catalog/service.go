package catalog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"affidavit"
	"affidavit/internal/jobs"
	"affidavit/internal/registry"
)

// JobKind marks a job record as a catalog chain step; the daemon's runner
// dispatches records carrying it to Service.RunStep.
const JobKind = "catalog"

// maxFieldBytes caps each non-file multipart value (op tag, async flag).
const maxFieldBytes = 1 << 20

// Config bundles the service dependencies. Explainer and Jobs are shared
// with the daemon's /explain path, so catalog steps ride the same worker
// pool, blob store and per-table affinity.
type Config struct {
	// Dir roots the catalog journal; empty means in-memory (no crash
	// durability — lineage dies with the process, like an in-memory job
	// store).
	Dir string
	// Explainer runs every chain step; its options (and seed) pin the
	// chain's determinism.
	Explainer *affidavit.Explainer
	// Jobs is the queue catalog steps are submitted to and the blob store
	// pushed snapshots are teed into.
	Jobs *jobs.Store
	// Sessions caches each chain's warm session under the "catalog"
	// namespace, bounded by the registry's cap and TTL; an evicted chain
	// re-seeds from its head snapshot's blob on the next step (a job
	// store without a directory keeps no blob bytes, so there the step
	// fails and the chain continues from the pushed snapshot).
	Sessions *registry.Registry
	// MaxRecords and MaxSnapshotBytes cap each pushed snapshot's record
	// count and raw byte volume (≤ 0 = unlimited).
	MaxRecords       int
	MaxSnapshotBytes int64
	// Now is the clock for journaled timestamps; nil means time.Now.
	Now func() time.Time
}

// Service is the catalog's HTTP surface and step runner. One instance
// serves /tables and executes every catalog job the daemon's pool
// dispatches back to it.
type Service struct {
	cfg    Config
	store  *Store
	ingest jobs.Ingester

	// pushMu serializes the lineage append + job submission of concurrent
	// pushes, so each snapshot's parent is exactly the previous push.
	// Ingest streams outside it.
	pushMu sync.Mutex

	schemaResets atomic.Int64
}

// chainNS is the catalog's session registry namespace.
const chainNS = "catalog"

// NewService opens the catalog store under cfg.Dir and returns the
// service.
func NewService(cfg Config) (*Service, error) {
	if cfg.Explainer == nil || cfg.Jobs == nil || cfg.Sessions == nil {
		return nil, fmt.Errorf("catalog: Config needs an Explainer, a job Store and a session Registry")
	}
	store, err := OpenStore(cfg.Dir, cfg.Now)
	if err != nil {
		return nil, err
	}
	// A crash between journaling a step and queueing its job leaves a
	// pending step that no job will ever finish: fail it, so neither the
	// timeline nor the pending gauge waits for it forever.
	for _, reg := range store.Tables() {
		_, _, steps, _ := store.History(reg.Table)
		for _, step := range steps {
			if step.Status != StepPending {
				continue
			}
			if _, queued := cfg.Jobs.Get(step.JobID); !queued {
				store.FinishStep(reg.Table, step.SnapshotID, StepFailed, "the daemon stopped before the step was queued", nil)
			}
		}
	}
	return &Service{cfg: cfg, store: store, ingest: jobs.Ingester{
		Explainer:        cfg.Explainer,
		Blobs:            cfg.Jobs.Blobs(),
		MaxRecords:       cfg.MaxRecords,
		MaxSnapshotBytes: cfg.MaxSnapshotBytes,
	}}, nil
}

// Store exposes the underlying catalog store (metrics, tests).
func (s *Service) Store() *Store { return s.store }

// Close closes the catalog journal. Close the worker pool first, so no
// step finishes after the journal is gone.
func (s *Service) Close() error { return s.store.Close() }

// Metrics is the store's snapshot plus the chain re-seeds caused by
// mid-chain schema changes.
func (s *Service) Metrics() Metrics {
	m := s.store.Metrics()
	m.SchemaResets = s.schemaResets.Load()
	return m
}

// Routes lists the catalog's route patterns for documentation tooling
// (the docs-drift check unions these with the daemon's mux literals).
func Routes() []string {
	return []string{
		"/tables",
		"/tables/{name}",
		"/tables/{name}/snapshots",
		"/tables/{name}/history",
		"/tables/{name}/trends",
	}
}

// ServeHTTP routes the catalog surface:
//
//	POST /tables                     register a table ({"name": ...})
//	GET  /tables                     list registrations
//	GET  /tables/{name}              one table + its snapshot lineage
//	POST /tables/{name}/snapshots    push a snapshot (multipart "snapshot")
//	GET  /tables/{name}/history      drift timeline (snapshots + steps)
//	GET  /tables/{name}/trends       trend analytics over the chain
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/tables")
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		s.handleTables(w, r)
		return
	}
	name, sub, _ := strings.Cut(rest, "/")
	switch sub {
	case "":
		s.handleTable(w, r, name)
	case "snapshots":
		s.handlePush(w, r, name)
	case "history":
		s.handleHistory(w, r, name)
	case "trends":
		s.handleTrends(w, r, name)
	default:
		http.NotFound(w, r)
	}
}

// tableView is one registration row of GET /tables.
type tableView struct {
	Name         string    `json:"name"`
	RegisteredAt time.Time `json:"registered_at"`
	Snapshots    int       `json:"snapshots"`
	Head         string    `json:"head,omitempty"`
}

// snapshotView is one lineage row: the journaled snapshot record minus
// catalog-internal bookkeeping.
type snapshotView struct {
	SnapshotID string    `json:"snapshot_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Blob       string    `json:"blob"`
	Op         string    `json:"op,omitempty"`
	Records    int       `json:"records"`
	Schema     []string  `json:"schema"`
	PushedAt   time.Time `json:"pushed_at"`
}

// stepView is one explanation step of the drift timeline. Status is the
// catalog status overlaid with the live job state while the step is in
// flight ("queued", "running"), so the timeline never shows a stale
// "pending" for a job that already failed or was cancelled.
type stepView struct {
	SnapshotID string       `json:"snapshot_id"`
	ParentID   string       `json:"parent_id"`
	Status     string       `json:"status"`
	JobID      string       `json:"job_id"`
	Job        string       `json:"job"`
	Result     string       `json:"result,omitempty"`
	Error      string       `json:"error,omitempty"`
	UpdatedAt  time.Time    `json:"updated_at"`
	Summary    *StepSummary `json:"summary,omitempty"`
}

// historyResponse is GET /tables/{name}/history: the stored chain as
// fixed structs in push order — byte-stable across restarts because every
// field replays from the journal.
type historyResponse struct {
	Table        string         `json:"table"`
	RegisteredAt time.Time      `json:"registered_at"`
	Snapshots    []snapshotView `json:"snapshots"`
	Steps        []stepView     `json:"steps"`
}

func viewSnapshot(rec Record) snapshotView {
	return snapshotView{
		SnapshotID: rec.SnapshotID,
		ParentID:   rec.ParentID,
		Blob:       rec.Blob,
		Op:         rec.Op,
		Records:    rec.Records,
		Schema:     rec.Schema,
		PushedAt:   rec.Time,
	}
}

// liveStepStatus resolves a step's serving status: terminal catalog
// states stand; a catalog-pending step reports its job's live state.
func (s *Service) liveStepStatus(rec Record) (status, errMsg string) {
	if rec.Status != StepPending {
		return string(rec.Status), rec.Error
	}
	if job, ok := s.cfg.Jobs.Get(rec.JobID); ok {
		jr := job.Record()
		switch jr.State {
		case jobs.StatePending:
			return "queued", ""
		case jobs.StateRunning:
			return "running", ""
		case jobs.StateError:
			return "failed", jr.Error
		case jobs.StateCancelled:
			return "cancelled", ""
		}
	}
	return string(StepPending), ""
}

func (s *Service) viewStep(rec Record) stepView {
	status, errMsg := s.liveStepStatus(rec)
	v := stepView{
		SnapshotID: rec.SnapshotID,
		ParentID:   rec.ParentID,
		Status:     status,
		JobID:      rec.JobID,
		Job:        "/jobs/" + rec.JobID,
		Error:      errMsg,
		UpdatedAt:  rec.Time,
		Summary:    rec.Summary,
	}
	if rec.Status == StepExplained {
		v.Result = "/jobs/" + rec.JobID + "/result"
	}
	return v
}

// handleTables serves POST /tables (register) and GET /tables (list).
func (s *Service) handleTables(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		recs := s.store.Tables()
		views := make([]tableView, len(recs))
		for i, rec := range recs {
			v := tableView{Name: rec.Table, RegisteredAt: rec.Time}
			if head, ok := s.store.Head(rec.Table); ok {
				v.Head = head.SnapshotID
			}
			_, snaps, _, _ := s.store.History(rec.Table)
			v.Snapshots = len(snaps)
			views[i] = v
		}
		jobs.WriteJSON(w, http.StatusOK, struct {
			Tables []tableView `json:"tables"`
		}{views})
	case http.MethodPost:
		name, err := registrationName(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rec, err := s.store.Register(name)
		switch {
		case errors.Is(err, ErrBadName):
			http.Error(w, err.Error(), http.StatusBadRequest)
		case errors.Is(err, ErrTableExists):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			jobs.WriteJSON(w, http.StatusCreated, tableView{Name: rec.Table, RegisteredAt: rec.Time})
		}
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

// registrationName extracts the table name from a POST /tables request:
// JSON {"name": ...}, a form value, or ?name=.
func registrationName(r *http.Request) (string, error) {
	if v := r.URL.Query().Get("name"); v != "" {
		return v, nil
	}
	ct := r.Header.Get("Content-Type")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFieldBytes))
	if err != nil {
		return "", fmt.Errorf("reading body: %w", err)
	}
	if strings.HasPrefix(ct, "application/json") {
		var req struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("parsing body: %w", err)
		}
		if req.Name == "" {
			return "", fmt.Errorf(`missing "name"`)
		}
		return req.Name, nil
	}
	if name := strings.TrimSpace(string(body)); name != "" {
		return name, nil
	}
	return "", fmt.Errorf(`missing "name" (JSON body {"name": ...} or ?name=)`)
}

// handleTable serves GET /tables/{name}: the registration plus its full
// snapshot lineage.
func (s *Service) handleTable(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg, snaps, _, ok := s.store.History(name)
	if !ok {
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	views := make([]snapshotView, len(snaps))
	for i, snap := range snaps {
		views[i] = viewSnapshot(snap)
	}
	jobs.WriteJSON(w, http.StatusOK, struct {
		Name         string         `json:"name"`
		RegisteredAt time.Time      `json:"registered_at"`
		Head         string         `json:"head,omitempty"`
		Snapshots    []snapshotView `json:"snapshots"`
	}{reg.Table, reg.Time, headID(snaps), views})
}

func headID(snaps []Record) string {
	if len(snaps) == 0 {
		return ""
	}
	return snaps[len(snaps)-1].SnapshotID
}

// handleHistory serves GET /tables/{name}/history: the drift timeline.
func (s *Service) handleHistory(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg, snaps, steps, ok := s.store.History(name)
	if !ok {
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	resp := historyResponse{
		Table:        reg.Table,
		RegisteredAt: reg.Time,
		Snapshots:    make([]snapshotView, len(snaps)),
		Steps:        make([]stepView, len(steps)),
	}
	for i, snap := range snaps {
		resp.Snapshots[i] = viewSnapshot(snap)
	}
	for i, step := range steps {
		resp.Steps[i] = s.viewStep(step)
	}
	jobs.WriteJSON(w, http.StatusOK, resp)
}

// handleTrends serves GET /tables/{name}/trends.
func (s *Service) handleTrends(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg, snaps, steps, ok := s.store.History(name)
	if !ok {
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	jobs.WriteJSON(w, http.StatusOK, s.computeTrends(reg, snaps, steps))
}

// StepPayload is the non-durable state a live push hands RunStep: the
// already-interned next snapshot. Journal-replayed steps run with a nil
// payload and re-ingest from the blob store.
type StepPayload struct {
	// Next is the pushed snapshot's interned table.
	Next *affidavit.Table
}

// handlePush serves POST /tables/{name}/snapshots: the multipart file
// part "snapshot" (CSV, first row = header) streams into the interned
// columnar backend while the same bytes tee into the job blob store —
// exactly the /explain ingest discipline. Optional values: "op" (an
// operation tag journaled into the lineage) and "async" ("1" answers 202
// with the job id instead of waiting for the step's explanation).
//
// The first push of a table seeds the chain (no explanation to run);
// every later push submits a catalog step job that explains
// parent→snapshot with the table's warm session.
func (s *Service) handlePush(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx := r.Context()
	up, err := s.ingest.ReadUpload(ctx, r, maxFieldBytes, "snapshot")
	if err != nil {
		if ctx.Err() != nil {
			http.Error(w, "request expired during snapshot ingest", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tab, hash := up.Tables["snapshot"], up.Blobs["snapshot"]
	value := func(k string) string { return up.Value(r, k) }
	// Serialize lineage append + job submission so each snapshot's parent
	// is exactly the previous push; ingest above streams concurrently.
	s.pushMu.Lock()
	snap, parent, hasParent, err := s.store.AddSnapshot(name, hash, value("op"), tab.Len(), tab.Schema().Attrs())
	if err != nil {
		s.pushMu.Unlock()
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	if !hasParent {
		// Chain baseline: seed the warm session now, so the next push's
		// step starts warm without a blob round-trip.
		s.setChain(name, s.cfg.Explainer.Session(tab), snap.SnapshotID)
		s.pushMu.Unlock()
		w.Header().Set("X-Affidavit-Snapshot-Id", snap.SnapshotID)
		jobs.WriteJSON(w, http.StatusCreated, struct {
			Snapshot snapshotView `json:"snapshot"`
		}{viewSnapshot(snap)})
		return
	}
	// Journal the complete pending step before its job exists: a fast
	// worker can finish the step the moment it is submitted.
	step, err := s.store.StartStep(name, snap.SnapshotID, snap.ParentID, stepJobID(snap))
	if err != nil {
		s.pushMu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	job, _, err := s.cfg.Jobs.Submit(jobs.Spec{
		ID:         step.JobID,
		Kind:       JobKind,
		Table:      name,
		Format:     "json",
		SourceBlob: parent.Blob,
		TargetBlob: snap.Blob,
		SnapshotID: snap.SnapshotID,
		ParentID:   snap.ParentID,
		Payload:    &StepPayload{Next: tab},
	})
	if err != nil {
		s.store.FinishStep(name, snap.SnapshotID, StepFailed, "the step was not queued: "+err.Error(), nil)
		s.pushMu.Unlock()
		if errors.Is(err, jobs.ErrClosed) {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.pushMu.Unlock()
	w.Header().Set("X-Affidavit-Snapshot-Id", snap.SnapshotID)
	w.Header().Set("X-Affidavit-Job-Id", job.ID())
	if value("async") == "1" {
		jobs.WriteJSON(w, http.StatusAccepted, struct {
			Snapshot snapshotView `json:"snapshot"`
			JobID    string       `json:"job_id"`
			Status   string       `json:"status"`
			Result   string       `json:"result"`
		}{viewSnapshot(snap), job.ID(), "/jobs/" + job.ID(), "/jobs/" + job.ID() + "/result"})
		return
	}
	rec, err := s.cfg.Jobs.Wait(ctx, job)
	if err != nil {
		if ctx.Err() != nil {
			http.Error(w, "request expired while waiting; poll /jobs/"+job.ID(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if rec.State == jobs.StateCancelled {
		// As jobs.WriteOutcome answers, but naming the job a step job.
		if rec.TraceID != "" {
			w.Header().Set("X-Affidavit-Trace-Id", rec.TraceID)
		}
		http.Error(w, "step job "+rec.ID+" was cancelled", http.StatusConflict)
		return
	}
	jobs.WriteOutcome(w, s.cfg.Jobs, rec)
}

// stepJobID names a snapshot's step job before it is submitted, so the
// pending step is journaled complete. The snapshot id alone could repeat
// when a fresh catalog replays the same pushes over a kept job store; the
// push time sets the two apart.
func stepJobID(snap Record) string {
	return jobs.Address("catalog/step", snap.SnapshotID, snap.Time.Format(time.RFC3339Nano))[:snapshotIDLen]
}

// RunStep executes one catalog chain step: explain parent→snapshot on the
// table's warm session, journal the step's terminal catalog state, and
// render the durable result exactly like a /explain json job — so a
// chain of N pushes stores bytes identical to N−1 manual warm
// ExplainNext calls over the same pair sequence.
//
// Chain-state rules: a successful step advances the session to the new
// snapshot (the next step starts warm). A failed, refused or interrupted
// step re-seeds a fresh session at the new snapshot — the chain continues
// from there, each later pair still explained, with one cold step paid.
// A schema change mid-chain is a refusal: the step fails with a clear
// error and the chain continues from the new schema.
func (s *Service) RunStep(ctx context.Context, rec jobs.Record, payload any) (*jobs.Outcome, error) {
	var next *affidavit.Table
	if p, ok := payload.(*StepPayload); ok && p != nil {
		next = p.Next
	}
	if next == nil {
		// Journal-replayed (or crash-requeued) step: re-intern the pushed
		// snapshot from the blob store.
		var err error
		if next, err = s.ingest.Ingest(ctx, rec.TargetBlob, "snapshot"); err != nil {
			return nil, err
		}
	}
	snap, ok := s.store.Snapshot(rec.Table, rec.SnapshotID)
	if !ok {
		return nil, fmt.Errorf("catalog: step references unknown snapshot %s", rec.SnapshotID)
	}
	parent, ok := s.store.Snapshot(rec.Table, rec.ParentID)
	if !ok {
		return nil, fmt.Errorf("catalog: step references unknown parent %s", rec.ParentID)
	}
	if !equalSchema(snap.Schema, parent.Schema) {
		// Schema changed mid-chain: refuse the explanation with a clear
		// error and continue the chain from the new schema.
		msg := fmt.Sprintf(
			"schema changed from %v to %v: explanation refused; the chain continues from snapshot %s with the new schema",
			parent.Schema, snap.Schema, snap.SnapshotID)
		s.resetChain(rec.Table, snap.SnapshotID, next, true)
		s.store.FinishStep(rec.Table, snap.SnapshotID, StepFailed, msg, nil)
		return nil, errors.New(msg)
	}
	sess, err := s.sessionFor(ctx, rec, parent)
	if errors.Is(err, os.ErrNotExist) {
		// The chain's session was evicted (or the daemon restarted) and
		// the parent's bytes are gone for good — a job store without a
		// directory keeps none. Fail the step and continue the chain from
		// the pushed snapshot, like any failed step.
		msg := fmt.Sprintf(
			"parent snapshot %s is no longer stored (its warm chain session was evicted, and blobs are kept only with -jobs-dir): explanation skipped; the chain continues from snapshot %s",
			parent.SnapshotID, snap.SnapshotID)
		s.resetChain(rec.Table, snap.SnapshotID, next, false)
		s.store.FinishStep(rec.Table, snap.SnapshotID, StepFailed, msg, nil)
		return nil, errors.New(msg)
	}
	if err != nil {
		return nil, err
	}
	res, err := sess.ExplainNextContext(ctx, next)
	if err != nil {
		s.resetChain(rec.Table, snap.SnapshotID, next, false)
		s.store.FinishStep(rec.Table, snap.SnapshotID, StepFailed, err.Error(), nil)
		return nil, err
	}
	out := &jobs.Outcome{}
	if stats, merr := json.Marshal(affidavit.StatsJSON(res.Stats)); merr == nil {
		out.Stats = stats
	}
	if res.Stats.Cancelled {
		// Interrupted mid-search: the pool decides between cancel,
		// deadline and shutdown-requeue from the context cause. The
		// session's internal head already advanced, so re-seed at the new
		// snapshot; the catalog step stays pending and the timeline
		// overlays the job's terminal state.
		s.resetChain(rec.Table, snap.SnapshotID, next, false)
		out.Cancelled = true
		return out, nil
	}
	s.setChain(rec.Table, sess, snap.SnapshotID)
	summary := summarizeStep(res)
	if err := s.store.FinishStep(rec.Table, snap.SnapshotID, StepExplained, "", summary); err != nil {
		return nil, err
	}
	body, merr := json.MarshalIndent(res.JSONResult(rec.Table), "", "  ")
	if merr != nil {
		return nil, merr
	}
	out.Body = append(body, '\n')
	out.ContentType = "application/json"
	return out, nil
}

// sessionFor returns the session to explain rec's pair on: the cached
// chain session when its head is the step's parent, else — after an
// eviction or a restart — one re-seeded from the parent's blob.
func (s *Service) sessionFor(ctx context.Context, rec jobs.Record, parent Record) (*affidavit.Session, error) {
	if e, ok := s.cfg.Sessions.Get(registry.Key{Namespace: chainNS, Table: rec.Table}); ok && e.Head == rec.ParentID {
		return e.Session, nil
	}
	parentTab, err := s.ingest.Ingest(ctx, parent.Blob, "snapshot")
	if err != nil {
		return nil, err
	}
	sess := s.cfg.Explainer.Session(parentTab)
	s.setChain(rec.Table, sess, rec.ParentID)
	return sess, nil
}

// setChain caches sess as the table's chain session, its head at the
// snapshot headID.
func (s *Service) setChain(table string, sess *affidavit.Session, headID string) {
	s.cfg.Sessions.Put(registry.Key{Namespace: chainNS, Table: table}, registry.Entry{Session: sess, Head: headID})
}

// resetChain re-seeds the table's chain at the given snapshot with a
// fresh session — the continue-from-here semantics of failed, refused and
// interrupted steps.
func (s *Service) resetChain(table, headID string, head *affidavit.Table, schemaChange bool) {
	s.setChain(table, s.cfg.Explainer.Session(head), headID)
	if schemaChange {
		s.schemaResets.Add(1)
	}
}

func equalSchema(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
