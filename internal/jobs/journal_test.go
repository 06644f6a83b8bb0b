package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"affidavit/internal/journal"
)

func writeJournalFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReplayLastLineWins(t *testing.T) {
	lines := [][]byte{}
	for _, rec := range []Record{
		{ID: "a", Seq: 0, State: StatePending},
		{ID: "b", Seq: 1, State: StatePending},
		{ID: "a", Seq: 0, State: StateRunning, Attempts: 1},
		{ID: "a", Seq: 0, State: StateCompleted, Attempts: 1, ContentType: "application/json"},
	} {
		b, _ := json.Marshal(rec)
		lines = append(lines, append(b, '\n'))
	}
	var data []byte
	for _, l := range lines {
		data = append(data, l...)
	}
	recs, keep, err := journal.Replay[Record](writeJournalFile(t, data), "jobs")
	if err != nil {
		t.Fatal(err)
	}
	if keep != int64(len(data)) {
		t.Fatalf("valid prefix %d, want %d", keep, len(data))
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if recs[0].ID != "a" || recs[0].State != StateCompleted || recs[0].Attempts != 1 {
		t.Fatalf("last line did not win: %+v", recs[0])
	}
	if recs[1].ID != "b" || recs[1].State != StatePending {
		t.Fatalf("record b mangled: %+v", recs[1])
	}
}

func TestReplayStopsAtCorruptLine(t *testing.T) {
	good, _ := json.Marshal(Record{ID: "a", Seq: 0, State: StatePending})
	data := append(append([]byte{}, good...), '\n')
	data = append(data, []byte("{\"id\":\"b\",\"state\":\"nonsense\"}\n{\"id\":\"c\"")...)
	recs, keep, err := journal.Replay[Record](writeJournalFile(t, data), "jobs")
	if err != nil {
		t.Fatal(err)
	}
	if keep != int64(len(good)+1) {
		t.Fatalf("keep=%d, want %d (stop at the first invalid line)", keep, len(good)+1)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("replay past corruption: %+v", recs)
	}
}

// FuzzJobJournal feeds arbitrary bytes through replay and checks the
// decode round-trip: whatever replay accepts must re-encode to a journal
// that replays to the identical record set (a fixed point), and replay
// must never panic or accept an invalid state.
func FuzzJobJournal(f *testing.F) {
	seedRec, _ := json.Marshal(Record{ID: "a", Seq: 3, State: StateRunning, Attempts: 2})
	f.Add(append(seedRec, '\n'))
	f.Add([]byte("{\"id\":\"x\",\"state\":\"pending\"}\n{\"id\":\"x\",\"state\":\"completed\"}\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, keep, err := journal.Replay[Record](writeJournalFile(t, data), "jobs")
		if err != nil {
			t.Skip() // I/O-level failure only; nothing to round-trip
		}
		if keep < 0 || keep > int64(len(data)) {
			t.Fatalf("keep=%d out of range [0,%d]", keep, len(data))
		}
		encode := func(recs []Record) []byte {
			var out []byte
			for _, rec := range recs {
				if rec.Validate() != nil {
					t.Fatalf("replay accepted an invalid record: %+v", rec)
				}
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatalf("re-encoding replayed record: %v", err)
				}
				out = append(out, append(line, '\n')...)
			}
			return out
		}
		// encode∘replay must be a fixed point: a journal the store itself
		// wrote replays losslessly. (The first replay may normalise, e.g.
		// compacting whitespace inside the raw stats message.)
		reencoded := encode(recs)
		recs2, keep2, err := journal.Replay[Record](writeJournalFile(t, reencoded), "jobs")
		if err != nil {
			t.Fatalf("replaying re-encoded journal: %v", err)
		}
		if keep2 != int64(len(reencoded)) {
			t.Fatalf("re-encoded journal has a corrupt tail: keep=%d len=%d", keep2, len(reencoded))
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round-trip changed the record count: %d vs %d", len(recs2), len(recs))
		}
		if !reflect.DeepEqual(encode(recs2), reencoded) {
			t.Fatalf("journal round-trip diverged:\n%s\nvs\n%s", encode(recs2), reencoded)
		}
	})
}
