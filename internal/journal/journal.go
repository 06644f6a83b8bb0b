// Package journal is the append-only JSONL log under affidavitd's durable
// stores: the job queue's transition journal and the snapshot catalog's
// lineage journal. One full record per line, fsync on every append, last
// line per key wins on replay, and a torn or corrupt tail (a power cut
// mid-write) is truncated away on open rather than poisoning the store.
//
// A record type plugs in by exposing its replay key, its validity check
// and its sequence number; the journal never interprets anything else, so
// a line's bytes are exactly encoding/json's rendering of the record's
// declared fields.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Record is what one journal line holds.
type Record interface {
	// JournalKey is the replay identity: the last line per key wins.
	JournalKey() string
	// Validate rejects records a hostile or torn journal could hold but a
	// live store never writes; replay stops at the first invalid line.
	Validate() error
	// JournalSeq orders the replayed live set.
	JournalSeq() uint64
}

// Journal is an open append-only log of T records. A nil *Journal is the
// in-memory mode: appends are no-ops and nothing is durable. Callers
// serialize access (the stores hold their own mutex around every call).
type Journal[T Record] struct {
	name  string // error prefix: the owning store ("jobs", "catalog")
	path  string
	f     *os.File
	lines int // appended since open or the last compaction
	// err latches the first write failure: the owning store keeps serving
	// from memory (availability over durability) and Close surfaces it.
	err error
}

// Open opens (creating if needed) the journal at path and replays it. The
// returned records are the live set — one per key, last line wins —
// ordered by JournalSeq. name prefixes every error.
func Open[T Record](path, name string) (*Journal[T], []T, error) {
	recs, keep, err := Replay[T](path, name)
	if err != nil {
		return nil, nil, err
	}
	// Drop a torn or corrupt tail before reopening for append: everything
	// past the last decodable line is garbage from an interrupted write.
	if fi, statErr := os.Stat(path); statErr == nil && fi.Size() > keep {
		if err := os.Truncate(path, keep); err != nil {
			return nil, nil, fmt.Errorf("%s: truncating journal tail: %w", name, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: opening journal: %w", name, err)
	}
	return &Journal[T]{name: name, path: path, f: f}, recs, nil
}

// Replay decodes path line by line without opening it for append. It
// returns the live records (last line per key, ordered by JournalSeq) and
// the byte length of the valid prefix; decoding stops at the first
// corrupt line. A missing file replays empty.
func Replay[T Record](path, name string) ([]T, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: opening journal: %w", name, err)
	}
	defer f.Close()
	var (
		byKey = make(map[string]T)
		keep  int64
	)
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: the final append was cut mid-line.
			// Treat it as torn — keep stays at the last full line.
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s: reading journal: %w", name, err)
		}
		var rec T
		if json.Unmarshal(line, &rec) != nil || rec.Validate() != nil {
			break // corrupt line: everything from here on is the torn tail
		}
		keep += int64(len(line))
		byKey[rec.JournalKey()] = rec
	}
	recs := make([]T, 0, len(byKey))
	//affidavit:ordered records are sorted by JournalSeq below before use
	for _, rec := range byKey {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].JournalSeq() < recs[j].JournalSeq() })
	return recs, keep, nil
}

// Append writes one record and fsyncs it — the durability point for every
// state change. A failure is latched (see Err) as well as returned; a nil
// journal appends nothing.
func (j *Journal[T]) Append(rec T) error {
	if j == nil {
		return nil
	}
	return j.latch(j.append(rec))
}

func (j *Journal[T]) append(rec T) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%s: encoding journal record: %w", j.name, err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("%s: appending journal: %w", j.name, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("%s: syncing journal: %w", j.name, err)
	}
	j.lines++
	return nil
}

// Lines counts the lines appended since open or the last compaction (0
// for a nil journal); the owning store decides when that is enough to
// compact.
func (j *Journal[T]) Lines() int {
	if j == nil {
		return 0
	}
	return j.lines
}

// Compact snapshots the live records into a fresh journal: write to a
// temp file, fsync, rename over the old log. live must already be in Seq
// order so a compacted journal replays identically to the log it
// replaces. A failure is latched as well as returned.
func (j *Journal[T]) Compact(live []T) error {
	if j == nil {
		return nil
	}
	return j.latch(j.compact(live))
}

func (j *Journal[T]) compact(live []T) error {
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("%s: compacting journal: %w", j.name, err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriterSize(tmp, 1<<16)
	for _, rec := range live {
		line, err := json.Marshal(rec)
		if err == nil {
			_, err = w.Write(append(line, '\n'))
		}
		if err != nil {
			tmp.Close()
			return fmt.Errorf("%s: compacting journal: %w", j.name, err)
		}
	}
	err = w.Flush()
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), j.path)
	}
	if err != nil {
		return fmt.Errorf("%s: compacting journal: %w", j.name, err)
	}
	SyncDir(dir)
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("%s: reopening compacted journal: %w", j.name, err)
	}
	j.f.Close()
	j.f = f
	j.lines = 0
	return nil
}

// Err returns the first latched write failure (nil while durable, and
// always nil for a nil journal).
func (j *Journal[T]) Err() error {
	if j == nil {
		return nil
	}
	return j.err
}

// Close closes the log file and returns the latched failure, if any.
// Closing again (or closing a nil journal) only reports the latch.
func (j *Journal[T]) Close() error {
	if j == nil {
		return nil
	}
	if j.f != nil {
		j.latch(j.f.Close())
		j.f = nil
	}
	return j.err
}

func (j *Journal[T]) latch(err error) error {
	if err != nil && j.err == nil {
		j.err = err
	}
	return err
}

// SyncDir fsyncs a directory so a rename or create inside it is durable.
// Best effort: some filesystems refuse directory syncs.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
