package jobs

import (
	"encoding/json"
	"net/http"

	"affidavit"
)

// WriteJSON answers status with v encoded as indented JSON — the one
// JSON body encoding of the daemon's job and catalog routes.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// DeadlineResponse is the 503 body of a sync request whose job ran out
// of budget: the statistics of the work done before the cut.
type DeadlineResponse struct {
	Error string              `json:"error"`
	Table string              `json:"table"`
	Stats affidavit.JSONStats `json:"stats"`
}

// WriteOutcome renders a terminal job record as a sync response: the
// stored result bytes, a 503 DeadlineResponse for deadline cuts, or the
// error text (422 for explain refusals such as schema changes).
func WriteOutcome(w http.ResponseWriter, s *Store, rec Record) {
	if rec.TraceID != "" {
		w.Header().Set("X-Affidavit-Trace-Id", rec.TraceID)
	}
	switch rec.State {
	case StateCompleted:
		body, rec2, err := s.Result(rec.ID)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", rec2.ContentType)
		w.Write(body)
	case StateError:
		if rec.Deadline {
			var st affidavit.JSONStats
			if len(rec.Stats) > 0 {
				json.Unmarshal(rec.Stats, &st)
			}
			st.Cancelled = false // the 503 body's error field already says it
			WriteJSON(w, http.StatusServiceUnavailable, DeadlineResponse{rec.Error, rec.Table, st})
			return
		}
		http.Error(w, rec.Error, http.StatusUnprocessableEntity)
	case StateCancelled:
		http.Error(w, "job "+rec.ID+" was cancelled", http.StatusConflict)
	default:
		// Unreachable: Wait only returns terminal records.
		http.Error(w, "job "+rec.ID+" is "+string(rec.State), http.StatusInternalServerError)
	}
}
