package main

// Job-subsystem glue: the runner that executes queued jobs through the
// per-table session machinery, and the /jobs API surface.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"affidavit"
	"affidavit/internal/catalog"
	"affidavit/internal/jobs"
)

// jobPayload is the non-durable state a live submission hands the
// runner: the already-interned snapshot pair and the request's trace
// recorder. Journal-replayed jobs run without one and re-ingest from the
// blob store.
type jobPayload struct {
	src, tgt *affidavit.Table
	trace    *affidavit.TraceRecorder
}

// runJob executes one queued job: resolve the snapshot pair (payload or
// blob replay), explain it on the table's session (warm chains reuse the
// previous tuple — worker affinity keeps one table on one worker, so the
// session never sees concurrent runs), and render the durable result.
// Blob-store I/O failures are transient (retried with backoff); explain
// errors such as schema mismatches are permanent.
func (s *server) runJob(ctx context.Context, rec jobs.Record, payload any) (*jobs.Outcome, error) {
	if rec.Kind == catalog.JobKind {
		return s.runCatalogStep(ctx, rec, payload)
	}
	var src, tgt *affidavit.Table
	var trec *affidavit.TraceRecorder
	if p, ok := payload.(*jobPayload); ok && p != nil {
		src, tgt, trec = p.src, p.tgt, p.trace
	}
	if trec == nil && s.cfg.traceBuffer != 0 {
		// Replayed or retried without a live request: the run still gets
		// a trace of its own.
		trec = affidavit.NewTraceRecorder()
	}
	if trec != nil {
		trec.SetLabel(rec.Table)
		trec.SetJobID(rec.ID)
		ctx = affidavit.ContextWithObserver(ctx, trec)
	}
	if src == nil || tgt == nil {
		var err error
		if src, err = s.ingest.Ingest(ctx, rec.SourceBlob, "source"); err != nil {
			return nil, err
		}
		if tgt, err = s.ingest.Ingest(ctx, rec.TargetBlob, "target"); err != nil {
			return nil, err
		}
	}
	sess := s.session(rec.Table)
	var res *affidavit.Result
	var err error
	if rec.Warm {
		res, err = sess.ExplainWarmContext(ctx, src, tgt)
	} else {
		res, err = sess.ExplainPairContext(ctx, src, tgt)
	}
	if err != nil {
		return nil, err
	}
	out := &jobs.Outcome{}
	if trec != nil {
		tr := trec.Trace()
		out.TraceID = tr.ID
		// Cancelled and deadline-cut runs retain their trace too — a
		// truncated cost curve is exactly what a post-mortem wants.
		s.storeTrace(tr)
	}
	if stats, merr := json.Marshal(affidavit.StatsJSON(res.Stats)); merr == nil {
		out.Stats = stats
	}
	if res.Stats.Cancelled {
		out.Cancelled = true
		return out, nil
	}
	switch rec.Format {
	case "", "json":
		jr := res.JSONResult(rec.Table)
		body, merr := json.MarshalIndent(jr, "", "  ")
		if merr != nil {
			return nil, merr
		}
		out.Body = append(body, '\n')
		out.ContentType = "application/json"
	case "sql":
		out.Body = []byte(res.SQL(rec.Table))
		out.ContentType = "text/plain; charset=utf-8"
	case "text":
		out.Body = []byte(res.Report())
		out.ContentType = "text/plain; charset=utf-8"
	default:
		return nil, fmt.Errorf("unknown format %q", rec.Format)
	}
	return out, nil
}

// jobView is the /jobs wire shape of one job record. Fields mirror
// jobs.Record (a fixed struct, so encoding is deterministic) plus the
// result link.
type jobView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Table       string          `json:"table,omitempty"`
	Format      string          `json:"format,omitempty"`
	Warm        bool            `json:"warm,omitempty"`
	Kind        string          `json:"kind,omitempty"`
	SnapshotID  string          `json:"snapshot_id,omitempty"`
	ParentID    string          `json:"parent_id,omitempty"`
	Attempts    int             `json:"attempts,omitempty"`
	Requeues    int             `json:"requeues,omitempty"`
	DedupeHits  int64           `json:"dedupe_hits,omitempty"`
	Error       string          `json:"error,omitempty"`
	Deadline    bool            `json:"deadline,omitempty"`
	TraceID     string          `json:"trace_id,omitempty"`
	ContentType string          `json:"content_type,omitempty"`
	Stats       json.RawMessage `json:"stats,omitempty"`
	Result      string          `json:"result,omitempty"`
}

func viewOf(rec jobs.Record) jobView {
	v := jobView{
		ID:          rec.ID,
		State:       string(rec.State),
		Table:       rec.Table,
		Format:      rec.Format,
		Warm:        rec.Warm,
		Kind:        rec.Kind,
		SnapshotID:  rec.SnapshotID,
		ParentID:    rec.ParentID,
		Attempts:    rec.Attempts,
		Requeues:    rec.Requeues,
		DedupeHits:  rec.DedupeHits,
		Error:       rec.Error,
		Deadline:    rec.Deadline,
		TraceID:     rec.TraceID,
		ContentType: rec.ContentType,
		Stats:       rec.Stats,
	}
	if rec.State == jobs.StateCompleted {
		v.Result = "/jobs/" + rec.ID + "/result"
	}
	return v
}

// writeJobAccepted answers an async submission: 202 Accepted with the
// job id and where to poll. Joining an existing job (the dedupe hit)
// looks identical — the id is the content address either way.
func (s *server) writeJobAccepted(w http.ResponseWriter, job *jobs.Job) {
	rec := job.Record()
	if rec.TraceID != "" {
		w.Header().Set("X-Affidavit-Trace-Id", rec.TraceID)
	}
	jobs.WriteJSON(w, http.StatusAccepted, struct {
		JobID  string `json:"job_id"`
		State  string `json:"state"`
		Status string `json:"status"`
		Result string `json:"result"`
	}{
		JobID:  rec.ID,
		State:  string(rec.State),
		Status: "/jobs/" + rec.ID,
		Result: "/jobs/" + rec.ID + "/result",
	})
}

// writeJobOutcome renders a terminal job record as the sync /explain
// response (jobs.WriteOutcome): the stored result bytes are
// byte-identical across dedupe joiners, except that ?trace=1 inlines the
// run's retained trace into a JSON result.
func (s *server) writeJobOutcome(w http.ResponseWriter, rec jobs.Record, inlineTrace bool) {
	if inlineTrace && rec.State == jobs.StateCompleted {
		if jr := s.tracedResult(rec); jr != nil {
			w.Header().Set("X-Affidavit-Trace-Id", rec.TraceID)
			jobs.WriteJSON(w, http.StatusOK, jr)
			return
		}
	}
	jobs.WriteOutcome(w, s.store, rec)
}

// tracedResult is a completed JSON job's stored result with the run's
// retained trace inlined, or nil when either is unavailable.
func (s *server) tracedResult(rec jobs.Record) *affidavit.JSONResult {
	tr := s.traceByID(rec.TraceID)
	if tr == nil || (rec.Format != "" && rec.Format != "json") {
		return nil
	}
	body, _, err := s.store.Result(rec.ID)
	if err != nil {
		return nil
	}
	var jr affidavit.JSONResult
	if json.Unmarshal(body, &jr) != nil {
		return nil
	}
	jr.Trace = tr
	return &jr
}

// handleJobs serves GET /jobs: every job record in submission order —
// the deterministic listing the jobstore analyzer pins.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	recs := s.store.List()
	views := make([]jobView, len(recs))
	for i, rec := range recs {
		views[i] = viewOf(rec)
	}
	jobs.WriteJSON(w, http.StatusOK, struct {
		Jobs []jobView `json:"jobs"`
	}{views})
}

// handleJob serves one job: GET /jobs/{id} (status + stats + trace id),
// GET /jobs/{id}/result (the stored bytes), DELETE /jobs/{id} (cancel —
// a pending job terminally, a running job via its context).
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "result") {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		job, ok := s.store.Get(id)
		if !ok {
			http.Error(w, "no job "+id, http.StatusNotFound)
			return
		}
		rec := job.Record()
		if sub == "result" {
			if rec.State != jobs.StateCompleted {
				http.Error(w, "job "+id+" is "+string(rec.State)+", not completed", http.StatusConflict)
				return
			}
			body, rec2, err := s.store.Result(id)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("X-Affidavit-Job-Id", rec2.ID)
			if rec2.TraceID != "" {
				w.Header().Set("X-Affidavit-Trace-Id", rec2.TraceID)
			}
			w.Header().Set("Content-Type", rec2.ContentType)
			w.Write(body)
			return
		}
		w.Header().Set("X-Affidavit-Job-Id", rec.ID)
		jobs.WriteJSON(w, http.StatusOK, viewOf(rec))
	case http.MethodDelete:
		if sub != "" {
			http.Error(w, "DELETE targets /jobs/{id}", http.StatusMethodNotAllowed)
			return
		}
		rec, err := s.store.Cancel(id)
		if err != nil {
			http.Error(w, "no job "+id, http.StatusNotFound)
			return
		}
		w.Header().Set("X-Affidavit-Job-Id", rec.ID)
		jobs.WriteJSON(w, http.StatusOK, viewOf(rec))
	default:
		http.Error(w, "GET or DELETE", http.StatusMethodNotAllowed)
	}
}
