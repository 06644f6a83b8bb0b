package catalog

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"affidavit"
	"affidavit/internal/jobs"
	"affidavit/internal/registry"
)

// pushCSV posts one snapshot to /tables/{table}/snapshots and returns the
// status code and body.
func pushCSV(t *testing.T, url, table, csv string) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("snapshot", "snapshot.csv")
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	io.WriteString(fw, csv)
	mw.Close()
	resp, err := http.Post(url+"/tables/"+table+"/snapshots", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestCatalogPushStepRace: a step job may finish the instant it is
// submitted, so the push must journal its pending step before the job can
// run. An instant runner lands FinishStep at once; no sync push may then
// answer 422 "no step for snapshot".
func TestCatalogPushStepRace(t *testing.T) {
	ex, err := affidavit.New()
	if err != nil {
		t.Fatal(err)
	}
	store, err := jobs.Open(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Config{Explainer: ex, Jobs: store, Sessions: registry.New(0, 0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	instant := func(ctx context.Context, rec jobs.Record, payload any) (*jobs.Outcome, error) {
		if err := svc.Store().FinishStep(rec.Table, rec.SnapshotID, StepExplained, "", &StepSummary{}); err != nil {
			return nil, err
		}
		return &jobs.Outcome{Body: []byte("{}\n"), ContentType: "application/json"}, nil
	}
	pool := jobs.NewPool(store, instant, jobs.PoolOptions{Workers: 4})
	pool.Start(context.Background())
	srv := httptest.NewServer(svc)
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
		svc.Close()
		store.Close()
	})

	const tables, pushes = 8, 60
	var wg sync.WaitGroup
	for ti := 0; ti < tables; ti++ {
		name := fmt.Sprintf("t%d", ti)
		if _, err := svc.Store().Register(name); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				want := http.StatusOK
				if i == 0 {
					want = http.StatusCreated
				}
				code, body := pushCSV(t, srv.URL, name, fmt.Sprintf("id,v\na,%d\nb,%d\n", i, i*2))
				if code != want {
					t.Errorf("%s push %d: status %d, want %d: %s", name, i, code, want, body)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReplayFailsUnqueuedStep: a push journals its pending step before it
// submits the step's job. A crash between the two leaves a pending step
// that no job will finish; reopening the service fails it instead of
// leaving it pending forever.
func TestReplayFailsUnqueuedStep(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Register("t")
	st.AddSnapshot("t", "blob0", "", 1, []string{"id"})
	snap, _, _, _ := st.AddSnapshot("t", "blob1", "", 1, []string{"id"})
	if _, err := st.StartStep("t", snap.SnapshotID, snap.ParentID, stepJobID(snap)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ex, err := affidavit.New()
	if err != nil {
		t.Fatal(err)
	}
	store, err := jobs.Open(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Config{Dir: dir, Explainer: ex, Jobs: store, Sessions: registry.New(0, 0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	_, _, steps, _ := svc.Store().History("t")
	if len(steps) != 1 || steps[0].Status != StepFailed || steps[0].JobID != stepJobID(snap) {
		t.Fatalf("replayed steps %+v, want one failed step naming its job", steps)
	}
	if m := svc.Store().Metrics(); m.StepsPending != 0 {
		t.Errorf("pending gauge %d after replay, want 0", m.StepsPending)
	}
}
