package journal_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"affidavit/internal/catalog"
	"affidavit/internal/jobs"
	"affidavit/internal/journal"
)

// Each testdata/<name>.jsonl was written by the daemon before the two
// stores shared this package (explains, a dedupe hit, a failed pair, a
// catalog chain with a schema change); <name>.replayed.json is what that
// code's own replay returned for it.

func TestReplayParentJournals(t *testing.T) {
	t.Run("jobs", func(t *testing.T) { checkParentReplay[jobs.Record](t, "jobs") })
	t.Run("catalog", func(t *testing.T) { checkParentReplay[catalog.Record](t, "catalog") })
}

func checkParentReplay[T journal.Record](t *testing.T, name string) {
	path := filepath.Join("testdata", name+".jsonl")
	recs, keep, err := journal.Replay[T](path, name)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || keep != fi.Size() {
		t.Fatalf("valid prefix %d of a clean journal (stat err %v)", keep, err)
	}
	got, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", name+".replayed.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(append(got, '\n')) != string(want) {
		t.Errorf("replay diverged from the recorded state:\n%s", got)
	}
}

// TestReplayTornTail: a power cut mid-append leaves a partial final line.
// Open must keep every whole line, truncate the tail, and append cleanly
// after it — for both record types.
func TestReplayTornTail(t *testing.T) {
	t.Run("jobs", func(t *testing.T) {
		checkTail[jobs.Record](t, "jobs", `{"id":"torn","seq":99,"sta`)
	})
	t.Run("catalog", func(t *testing.T) {
		checkTail[catalog.Record](t, "catalog", `{"kind":"step","seq":99,"table":"c","sna`)
	})
}

// TestReplayGarbageTail: whole but invalid lines (garbage, or records a
// live store never writes) stop replay at the last valid line, even when
// valid lines follow them.
func TestReplayGarbageTail(t *testing.T) {
	t.Run("jobs", func(t *testing.T) {
		checkTail[jobs.Record](t, "jobs", "\x00\x17garbage\n"+`{"id":"x","seq":100,"state":"pending"}`+"\n")
	})
	t.Run("catalog", func(t *testing.T) {
		checkTail[catalog.Record](t, "catalog", `{"kind":"bogus","seq":100,"table":"c"}`+"\n"+`{"kind":"table","seq":101,"table":"d"}`+"\n")
	})
}

func checkTail[T journal.Record](t *testing.T, name, tail string) {
	clean, err := os.ReadFile(filepath.Join("testdata", name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".jsonl")
	if err := os.WriteFile(path, append(append([]byte{}, clean...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _, err := journal.Replay[T](filepath.Join("testdata", name+".jsonl"), name)
	if err != nil {
		t.Fatal(err)
	}
	j, got, err := journal.Open[T](path, name)
	if err != nil {
		t.Fatalf("open with a bad tail: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bad tail changed the replayed state: %d records, want %d", len(got), len(want))
	}
	onDisk, _ := os.ReadFile(path)
	if !bytes.Equal(onDisk, clean) {
		t.Fatalf("tail not truncated: %d bytes on disk, want %d", len(onDisk), len(clean))
	}
	last := want[len(want)-1]
	if err := j.Append(last); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	again, keep, err := journal.Replay[T](path, name)
	if err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("append after truncation replays wrong (err %v)", err)
	}
	if onDisk, _ := os.ReadFile(path); keep != int64(len(onDisk)) {
		t.Fatalf("append after truncation left a corrupt tail: keep=%d len=%d", keep, len(onDisk))
	}
}

// TestInMemoryJournal: a nil journal is the stores' in-memory mode —
// every operation succeeds and nothing latches.
func TestInMemoryJournal(t *testing.T) {
	var j *journal.Journal[jobs.Record]
	if j.Append(jobs.Record{ID: "a", State: jobs.StatePending}) != nil ||
		j.Compact(nil) != nil || j.Lines() != 0 || j.Err() != nil || j.Close() != nil {
		t.Fatal("nil journal is not a silent in-memory journal")
	}
}

// FuzzCatalogJournal is FuzzJobJournal's fixed-point property for catalog
// records: whatever replay accepts must re-encode to a journal that
// replays to the identical record set, and replay must never panic or
// accept an invalid record.
func FuzzCatalogJournal(f *testing.F) {
	seed, _ := json.Marshal(catalog.Record{Kind: catalog.KindStep, Seq: 3, Table: "t", SnapshotID: "s", Status: catalog.StepExplained,
		Summary: &catalog.StepSummary{Records: 2, Functions: []catalog.StepFunction{{Attribute: "a", Kind: "addition"}}}})
	f.Add(append(seed, '\n'))
	f.Add([]byte(`{"kind":"table","seq":0,"table":"t","time":"2026-01-02T03:04:05Z"}` + "\n" +
		`{"kind":"snapshot","seq":1,"table":"t","snapshot_id":"x","schema":["a","b"]}` + "\n"))
	f.Add([]byte(`{"kind":"snapshot","table":"t"}` + "\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFixedPoint[catalog.Record](t, "catalog", data)
	})
}

func checkFixedPoint[T journal.Record](t *testing.T, name string, data []byte) {
	write := func(data []byte) string {
		path := filepath.Join(t.TempDir(), name+".jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	recs, keep, err := journal.Replay[T](write(data), name)
	if err != nil {
		t.Skip() // I/O-level failure only; nothing to round-trip
	}
	if keep < 0 || keep > int64(len(data)) {
		t.Fatalf("keep=%d out of range [0,%d]", keep, len(data))
	}
	encode := func(recs []T) []byte {
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
	reencoded := encode(recs)
	recs2, keep2, err := journal.Replay[T](write(reencoded), name)
	if err != nil {
		t.Fatalf("replaying re-encoded journal: %v", err)
	}
	if keep2 != int64(len(reencoded)) {
		t.Fatalf("re-encoded journal has a corrupt tail: keep=%d len=%d", keep2, len(reencoded))
	}
	if len(recs2) != len(recs) {
		t.Fatalf("round-trip changed the record count: %d vs %d", len(recs2), len(recs))
	}
	if !bytes.Equal(encode(recs2), reencoded) {
		t.Fatalf("journal round-trip diverged:\n%s\nvs\n%s", encode(recs2), reencoded)
	}
}
