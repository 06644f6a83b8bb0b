package main

// Catalog glue: the runner wrapper that executes snapshot-catalog chain
// steps with per-run tracing (including snapshot lineage ids).

import (
	"context"

	"affidavit"
	"affidavit/internal/jobs"
)

// runCatalogStep executes one catalog chain-step job: attach a run trace
// carrying the step's lineage (snapshot id + parent id), then hand the
// step to the catalog service — which resolves the warm session, runs
// ExplainNext, journals the step's terminal catalog state and renders the
// durable result.
func (s *server) runCatalogStep(ctx context.Context, rec jobs.Record, payload any) (*jobs.Outcome, error) {
	var trec *affidavit.TraceRecorder
	if s.cfg.traceBuffer != 0 {
		trec = affidavit.NewTraceRecorder()
		trec.SetLabel(rec.Table)
		trec.SetJobID(rec.ID)
		trec.SetLineage(rec.SnapshotID, rec.ParentID)
		ctx = affidavit.ContextWithObserver(ctx, trec)
	}
	out, err := s.catalog.RunStep(ctx, rec, payload)
	if trec != nil {
		tr := trec.Trace()
		if out != nil {
			out.TraceID = tr.ID
		}
		// Failed and cancelled steps retain their trace too.
		s.storeTrace(tr)
	}
	return out, err
}
