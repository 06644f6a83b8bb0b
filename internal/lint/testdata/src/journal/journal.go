// Package journal is a jobstore fixture: the package path's last segment
// is "journal", so the analyzer scopes it like the real
// affidavit/internal/journal.
package journal

import (
	"encoding/json"
	"sort"
)

type record struct {
	Key string
	Seq uint64
}

// Flagged: the replayed live set leaks map iteration order.
func live(byKey map[string]record) []record {
	var out []record
	for _, rec := range byKey { // want "unordered iteration over map\[string\]record in the job store"
		if rec.Seq > 0 {
			out = append(out, rec)
		}
	}
	return out
}

// Allowed: the replay idiom — collect, then sort by sequence.
func replay(byKey map[string]record) []record {
	recs := make([]record, 0, len(byKey))
	//affidavit:ordered records are sorted by Seq below before use
	for _, rec := range byKey {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs
}

// Flagged: a journal line must not encode a map.
func line(m map[string]uint64) ([]byte, error) {
	return json.Marshal(m) // want "JSON-encoding map-bearing map\[string\]uint64 in the job store"
}

// Allowed: a flat record's line is a pure function of field order.
func flatLine(r record) ([]byte, error) {
	return json.Marshal(r)
}
