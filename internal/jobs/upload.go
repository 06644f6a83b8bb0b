package jobs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"

	"affidavit"
)

// maxFormFields bounds how many non-file parts one upload may carry.
const maxFormFields = 64

// Ingester interns snapshot uploads with Explainer: live multipart
// bodies (ReadUpload), teed into Blobs on their way in, and stored blobs
// (Ingest), which is how replayed, retried and re-seeded work gets its
// tables back.
type Ingester struct {
	Explainer *affidavit.Explainer
	Blobs     *BlobStore
	// MaxRecords and MaxSnapshotBytes cap each snapshot's record count
	// and raw byte volume (≤ 0 = unlimited).
	MaxRecords       int
	MaxSnapshotBytes int64
}

// Upload is one parsed multipart body: its CSV file parts, interned and
// stored as blobs, plus the small form values.
type Upload struct {
	// Tables and Blobs hold each file part's table and blob address, by
	// part name.
	Tables map[string]*affidavit.Table
	Blobs  map[string]string
	Form   map[string]string
}

// Value returns the named value. The request's query wins over form
// parts, so ?table=x works regardless of part order.
func (u *Upload) Value(r *http.Request, k string) string {
	if v := r.URL.Query().Get(k); v != "" {
		return v
	}
	return u.Form[k]
}

// ReadUpload streams a multipart body. The parts named in files are CSV
// snapshots (first row = header), each required: they are interned into
// the columnar backend as they arrive (never buffered whole, bounded by
// MaxRecords and MaxSnapshotBytes) while the same bytes tee into the blob
// store — hashed for content addressing and, with a durable store,
// spooled so replayed work can re-ingest them. Other parts are collected
// as form values of at most fieldLimit bytes each. Parts may arrive in
// any order.
func (in Ingester) ReadUpload(ctx context.Context, r *http.Request, fieldLimit int64, files ...string) (*Upload, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, fmt.Errorf("parsing upload: %w", err)
	}
	up := &Upload{Tables: make(map[string]*affidavit.Table), Blobs: make(map[string]string), Form: make(map[string]string)}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parsing upload: %w", err)
		}
		name := part.FormName()
		if slices.Contains(files, name) {
			err = in.ingestPart(ctx, part, name, up)
			part.Close()
			if err != nil {
				return nil, err
			}
			continue
		}
		// Bound both each field's size and the field count, so a body of
		// endless small parts cannot grow the form map without limit.
		if len(up.Form) >= maxFormFields {
			return nil, fmt.Errorf("too many form fields (limit %d)", maxFormFields)
		}
		b, err := io.ReadAll(io.LimitReader(part, fieldLimit+1))
		part.Close()
		if err != nil {
			return nil, fmt.Errorf("reading field %q: %w", name, err)
		}
		if int64(len(b)) > fieldLimit {
			return nil, fmt.Errorf("field %q exceeds %d bytes", name, fieldLimit)
		}
		up.Form[name] = string(b)
	}
	for _, name := range files {
		if up.Tables[name] == nil {
			return nil, fmt.Errorf("missing %q file", name)
		}
	}
	return up, nil
}

// ingestPart interns one file part while teeing it into the blob store.
func (in Ingester) ingestPart(ctx context.Context, part io.Reader, name string, up *Upload) error {
	bw := in.Blobs.NewWriter()
	body := io.TeeReader(capBytes(part, in.MaxSnapshotBytes), bw)
	tab, err := in.Explainer.ReadSourceNamed(ctx, capRecords(affidavit.NewCSVSource(body), in.MaxRecords), name)
	if err == nil {
		// Hash any bytes the CSV reader buffered past the final record, so
		// the address is a function of the whole part.
		_, err = io.Copy(io.Discard, body)
	}
	if err != nil {
		bw.Abort()
		return fmt.Errorf("reading %q file: %w", name, err)
	}
	hash, err := bw.Commit()
	if err != nil {
		return fmt.Errorf("storing %q upload: %w", name, err)
	}
	up.Tables[name], up.Blobs[name] = tab, hash
	return nil
}

// Ingest re-interns a stored upload (role labels its ingest events).
// Store failures are transient: the blob may be on slow or briefly
// unavailable storage, and a retry with backoff is cheaper than failing a
// durable job. A blob gone for good (an in-memory store keeps no bytes)
// still wraps os.ErrNotExist, so callers can tell the two apart.
func (in Ingester) Ingest(ctx context.Context, hash, role string) (*affidavit.Table, error) {
	data, err := in.Blobs.Get(hash)
	if err != nil {
		return nil, Transient(fmt.Errorf("replaying %s upload: %w", role, err))
	}
	tab, err := in.Explainer.ReadSourceNamed(ctx, affidavit.NewCSVSource(bytes.NewReader(data)), role)
	if err != nil {
		return nil, fmt.Errorf("re-ingesting %s upload: %w", role, err)
	}
	return tab, nil
}

// capBytes errors once more than max bytes flow through it (max ≤ 0
// passes the reader through) — unlike io.LimitReader, which would
// silently truncate and store a different snapshot than the client sent.
func capBytes(r io.Reader, max int64) io.Reader {
	if max <= 0 {
		return r
	}
	return &byteCap{r: r, left: max}
}

type byteCap struct {
	r    io.Reader
	left int64
}

func (c *byteCap) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.left -= int64(n)
	if c.left < 0 {
		return n, fmt.Errorf("snapshot exceeds the byte limit (-max-snapshot); genuinely large snapshots can be served by raising it and bounding memory with -mem-budget instead")
	}
	return n, err
}

// capRecords bounds a snapshot's record count (max ≤ 0 = unlimited) — the
// backstop against uploads that would intern until OOM, now that file
// parts have no byte cap.
func capRecords(src affidavit.Source, max int) affidavit.Source {
	if max <= 0 {
		return src
	}
	return &recordCap{Source: src, left: max}
}

type recordCap struct {
	affidavit.Source
	left int
}

func (l *recordCap) Next() (affidavit.Record, error) {
	rec, err := l.Source.Next()
	if err != nil {
		return nil, err
	}
	// Reject only when a real record arrives past the cap, so a snapshot
	// of exactly max records still ends in a clean EOF.
	if l.left <= 0 {
		return nil, fmt.Errorf("snapshot exceeds the record limit (-max-records)")
	}
	l.left--
	return rec, nil
}
