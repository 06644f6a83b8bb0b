package affidavit_test

import (
	"context"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
)

// TestCostNeverAboveTrivial sweeps cold explanations of one-step
// ncvoter-1k chains over seeds 1..40: every complete run must return an
// explanation no costlier than the trivial delete+insert one, which is
// always available.
func TestCostNeverAboveTrivial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 40 full searches; skipped in -short")
	}
	ds, err := datasets.Get("ncvoter-1k")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 40; seed++ {
		tab, err := ds.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := gen.MakeChain(tab, gen.ChainConfig{Steps: 1, Eta: 0.1, Tau: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := affidavit.New(affidavit.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Explain(context.Background(), ch.Snapshots[0], ch.Snapshots[1])
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Cost > res.TrivialCost {
			t.Errorf("seed %d: cost %g above trivial %g", seed, res.Cost, res.TrivialCost)
		}
	}
}
