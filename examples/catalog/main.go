// Catalog walks the snapshot-history catalog end to end, in process but
// over the real HTTP surface: register a table, push three successive
// snapshot versions of an orders feed, and read back the drift timeline
// and trend analytics the service derives from the explanation chain.
//
// Each push after the first becomes a job on the table's warm session —
// exactly what affidavitd does behind POST /tables/{name}/snapshots — so
// the stored chain is byte-identical to manual warm ExplainNext calls
// over the same sequence.
//
// Run with: go run ./examples/catalog
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"

	"affidavit"
	"affidavit/internal/catalog"
	"affidavit/internal/jobs"
	"affidavit/internal/registry"
)

// Three nightly versions of an orders table. Every night the ETL shifts
// amounts by +250 cents and migrates the legacy "open" status coding to
// "OPEN"; orders churn (one shipped order is archived, one new order
// arrives still carrying the legacy coding), so the same systematic
// rewrite recurs and the warm chain confirms it cheaply.
var snapshots = []string{
	`order,amount_cents,status
ord-001,1099,open
ord-002,2499,open
ord-003,999,shipped
ord-004,1899,open
ord-005,350,shipped
ord-006,780,open
`,
	`order,amount_cents,status
ord-002,2749,OPEN
ord-003,1249,shipped
ord-004,2149,OPEN
ord-005,600,shipped
ord-006,1030,OPEN
ord-007,1500,open
`,
	`order,amount_cents,status
ord-003,1499,shipped
ord-004,2399,OPEN
ord-005,850,shipped
ord-006,1280,OPEN
ord-007,1750,OPEN
ord-008,1500,open
`,
}

func main() {
	// The same assembly affidavitd performs at startup: one Explainer (the
	// seed pins the chain's determinism), an in-memory job store, an
	// unbounded session registry, the catalog service over them, and a
	// worker pool whose runner dispatches
	// catalog jobs back into the service.
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	store, err := jobs.Open(jobs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	svc, err := catalog.NewService(catalog.Config{Explainer: ex, Jobs: store, Sessions: registry.New(0, 0, nil)})
	if err != nil {
		log.Fatal(err)
	}
	pool := jobs.NewPool(store, func(ctx context.Context, rec jobs.Record, payload any) (*jobs.Outcome, error) {
		if rec.Kind != catalog.JobKind {
			return nil, fmt.Errorf("unexpected job kind %q", rec.Kind)
		}
		return svc.RunStep(ctx, rec, payload)
	}, jobs.PoolOptions{})
	pool.Start(context.Background())
	defer func() {
		pool.Close()
		if err := svc.Close(); err != nil {
			log.Fatal(err)
		}
		store.Close()
	}()

	ts := httptest.NewServer(svc)
	defer ts.Close()

	// Register the table.
	resp, err := http.Post(ts.URL+"/tables?name=orders", "", nil)
	if err != nil {
		log.Fatal(err)
	}
	drain(resp)
	fmt.Printf("registered table %q → %s\n\n", "orders", resp.Status)

	// Push the three versions. The first seeds the chain; each later push
	// explains previous→new on the warm session and returns the stored
	// explanation bytes.
	for night, csv := range snapshots {
		resp := push(ts.URL, "orders", csv, fmt.Sprintf("nightly-etl-%d", night))
		fmt.Printf("push %d: %s  snapshot=%s\n", night, resp.Status, resp.Header.Get("X-Affidavit-Snapshot-Id"))
		if resp.StatusCode == http.StatusOK {
			var res struct {
				Explanation struct {
					Functions []struct {
						Attribute string `json:"attribute"`
						Display   string `json:"display"`
					} `json:"functions"`
				} `json:"explanation"`
			}
			decode(resp, &res)
			for _, f := range res.Explanation.Functions {
				fmt.Printf("    %-14s %s\n", f.Attribute, f.Display)
			}
		} else {
			drain(resp)
		}
	}

	// The drift timeline: snapshots with lineage, steps with summaries.
	var hist struct {
		Snapshots []struct {
			ID      string `json:"snapshot_id"`
			Parent  string `json:"parent_id"`
			Op      string `json:"op"`
			Records int    `json:"records"`
		} `json:"snapshots"`
		Steps []struct {
			SnapshotID string `json:"snapshot_id"`
			Status     string `json:"status"`
			Summary    *struct {
				Updates     int     `json:"updates"`
				Inserts     int     `json:"inserts"`
				Deletes     int     `json:"deletes"`
				Compression float64 `json:"compression"`
			} `json:"summary"`
		} `json:"steps"`
	}
	get(ts.URL+"/tables/orders/history", &hist)
	fmt.Println("\ndrift timeline (/tables/orders/history):")
	for _, s := range hist.Snapshots {
		parent := s.Parent
		if parent == "" {
			parent = "(chain root)"
		}
		fmt.Printf("  %s  ← %s  op=%s records=%d\n", s.ID, parent, s.Op, s.Records)
	}
	for _, st := range hist.Steps {
		fmt.Printf("  step → %s  %s", st.SnapshotID, st.Status)
		if st.Summary != nil {
			fmt.Printf("  (updates=%d inserts=%d deletes=%d compression=%.3f)",
				st.Summary.Updates, st.Summary.Inserts, st.Summary.Deletes, st.Summary.Compression)
		}
		fmt.Println()
	}

	// Trend analytics: attribute churn and the op mix over the chain.
	var trends struct {
		Attributes []struct {
			Attribute    string   `json:"attribute"`
			ChangedSteps int      `json:"changed_steps"`
			Updated      int      `json:"updated"`
			Kinds        []string `json:"kinds"`
		} `json:"attributes"`
		Ops struct {
			Updates int `json:"updates"`
			Inserts int `json:"inserts"`
			Deletes int `json:"deletes"`
		} `json:"ops"`
		Compression struct {
			Trajectory []float64 `json:"trajectory"`
		} `json:"compression"`
	}
	get(ts.URL+"/tables/orders/trends", &trends)
	fmt.Println("\ndrift trends (/tables/orders/trends):")
	for _, a := range trends.Attributes {
		fmt.Printf("  %-14s changed in %d steps, %d records updated, kinds=%v\n",
			a.Attribute, a.ChangedSteps, a.Updated, a.Kinds)
	}
	fmt.Printf("  op mix: %d updates, %d inserts, %d deletes\n",
		trends.Ops.Updates, trends.Ops.Inserts, trends.Ops.Deletes)
	fmt.Printf("  compression trajectory: %v\n", trends.Compression.Trajectory)
}

// push uploads one CSV snapshot as the multipart body affidavitd expects,
// tagging the lineage record with op.
func push(base, table, csv, op string) *http.Response {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	part, err := mw.CreateFormFile("snapshot", "snapshot.csv")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := io.Copy(part, strings.NewReader(csv)); err != nil {
		log.Fatal(err)
	}
	if err := mw.WriteField("op", op); err != nil {
		log.Fatal(err)
	}
	mw.Close()
	resp, err := http.Post(base+"/tables/"+table+"/snapshots", mw.FormDataContentType(), &body)
	if err != nil {
		log.Fatal(err)
	}
	return resp
}

func get(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	decode(resp, into)
}

func decode(resp *http.Response, into any) {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatal(err)
	}
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
