package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsGolden pins the full /metrics exposition after a fixed
// scenario: one sync /explain, then a catalog registration and two
// pushes (the chain baseline and one explained step). Tracing is off, so
// the wall-clock histograms stay empty and every line is deterministic.
func TestMetricsGolden(t *testing.T) {
	s := mustServer(t, serverConfig{options: testOptions(), traceBuffer: 0})
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)

	pair := testChain(t, 1)
	if code, body := post(t, srv, csvOf(t, pair.Snapshots[0]), csvOf(t, pair.Snapshots[1]),
		map[string]string{"table": "golden"}); code != http.StatusOK {
		t.Fatalf("explain: status %d: %s", code, body)
	}
	if code, body := registerTable(t, srv, "golden"); code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", code, body)
	}
	ch := testChain(t, 2)
	for i, want := range []int{http.StatusCreated, http.StatusOK} {
		if code, body, _ := pushSnapshot(t, srv, "golden", csvOf(t, ch.Snapshots[i]), nil); code != want {
			t.Fatalf("push %d: status %d: %s", i, code, body)
		}
	}
	got := get(t, srv.URL+"/metrics")
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics drifted from testdata/metrics.golden:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
