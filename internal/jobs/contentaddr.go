package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sync"

	"affidavit/internal/journal"
)

// Address hashes the given parts into a content address. Parts are
// length-prefixed before hashing, so ("ab","c") and ("a","bc") address
// differently — the address is a function of the part sequence, not of
// the concatenated bytes.
func Address(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BlobStore holds canonicalized snapshot uploads keyed by their SHA-256,
// so a requeued job can re-ingest its inputs after a crash. With a
// directory it is durable (blobs/<hash> files, fsynced); without one it
// is a process-local map — exactly as durable as the in-memory job store
// it accompanies.
//
// Blobs are immutable and content-keyed: writing the same bytes twice is
// a no-op, so concurrent identical uploads cost one file.
type BlobStore struct {
	dir string // "" = in-memory

	mu  sync.Mutex
	mem map[string][]byte
}

// newBlobStore returns a blob store rooted at dir ("" for in-memory).
func newBlobStore(dir string) (*BlobStore, error) {
	if dir == "" {
		return &BlobStore{mem: make(map[string][]byte)}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: blob store: %w", err)
	}
	return &BlobStore{dir: dir}, nil
}

// Put stores data and returns its hash. Existing blobs are left alone —
// content addressing makes the write idempotent.
func (b *BlobStore) Put(data []byte) (string, error) {
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	if b.dir == "" {
		b.mu.Lock()
		if _, ok := b.mem[hash]; !ok {
			b.mem[hash] = append([]byte(nil), data...)
		}
		b.mu.Unlock()
		return hash, nil
	}
	path := filepath.Join(b.dir, hash)
	if _, err := os.Stat(path); err == nil {
		return hash, nil
	}
	if err := writeFileSync(path, data); err != nil {
		return "", fmt.Errorf("jobs: blob store: %w", err)
	}
	return hash, nil
}

// BlobWriter streams one blob into the store: bytes are hashed as they
// arrive, and in durable mode they are spooled to a temp file that
// Commit renames to its content address — an upload is never buffered
// whole in memory on its way to the blob store. An in-memory store only
// tracks the hash: without a journal there is no replay, so the bytes
// would never be read back.
type BlobWriter struct {
	b   *BlobStore
	h   hash.Hash
	tmp *os.File
	err error
}

// NewWriter starts a streaming blob write. Errors are deferred to
// Commit so the writer can sit inside an io.TeeReader chain.
func (b *BlobStore) NewWriter() *BlobWriter {
	w := &BlobWriter{b: b, h: sha256.New()}
	if b.dir != "" {
		tmp, err := os.CreateTemp(b.dir, ".blob-*")
		if err != nil {
			w.err = fmt.Errorf("jobs: blob store: %w", err)
			return w
		}
		w.tmp = tmp
	}
	return w
}

// Write hashes (and, durably, spools) p.
func (w *BlobWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.h.Write(p)
	if w.tmp != nil {
		if _, err := w.tmp.Write(p); err != nil {
			w.err = fmt.Errorf("jobs: blob store: %w", err)
			return 0, w.err
		}
	}
	return len(p), nil
}

// Commit finalises the blob and returns its content hash. In durable
// mode the spooled bytes are fsynced and renamed to blobs/<hash>;
// committing content that is already stored discards the spool.
func (w *BlobWriter) Commit() (string, error) {
	if w.err != nil {
		w.Abort()
		return "", w.err
	}
	sum := hex.EncodeToString(w.h.Sum(nil))
	if w.tmp == nil {
		return sum, nil
	}
	tmp := w.tmp
	w.tmp = nil
	defer os.Remove(tmp.Name())
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("jobs: blob store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("jobs: blob store: %w", err)
	}
	path := filepath.Join(w.b.dir, sum)
	if _, err := os.Stat(path); err == nil {
		return sum, nil // identical blob already stored
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("jobs: blob store: %w", err)
	}
	journal.SyncDir(w.b.dir)
	return sum, nil
}

// Abort discards the write.
func (w *BlobWriter) Abort() {
	if w.tmp != nil {
		w.tmp.Close()
		os.Remove(w.tmp.Name())
		w.tmp = nil
	}
}

// Get returns the blob's bytes.
func (b *BlobStore) Get(hash string) ([]byte, error) {
	if b.dir == "" {
		b.mu.Lock()
		data, ok := b.mem[hash]
		b.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("jobs: blob %s: %w", hash, os.ErrNotExist)
		}
		return append([]byte(nil), data...), nil
	}
	data, err := os.ReadFile(filepath.Join(b.dir, hash))
	if err != nil {
		return nil, fmt.Errorf("jobs: blob %s: %w", hash, err)
	}
	return data, nil
}

// writeFileSync writes data to path atomically: temp file in the same
// directory, fsync, rename, directory fsync (best effort — some
// filesystems reject directory syncs).
func writeFileSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	journal.SyncDir(dir)
	return nil
}
