package main

// Input generation. Every input is a pure function of the run's seed and
// reaches the program only as CSV bytes.

import (
	"bytes"
	"fmt"
	"time"

	"affidavit/internal/datasets"
	"affidavit/internal/gen"
	"affidavit/internal/table"
)

// csvPair is one generated source/target snapshot pair, rendered as CSV.
type csvPair struct {
	Source, Target []byte
	Records        int // source plus target records
}

// genTimes accumulates the time spent in the dataset and generator layers.
type genTimes struct {
	build, generate time.Duration
}

func csvBytes(t *table.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildDataset materialises rows records of the named dataset.
func buildDataset(name string, rows int, seed int64, gt *genTimes) (*table.Table, error) {
	spec, err := datasets.Get(name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tab, err := spec.BuildRows(rows, seed)
	gt.build += time.Since(t0)
	return tab, err
}

// makePair generates one η/τ problem over tab and renders its snapshots.
func makePair(tab *table.Table, eta, tau float64, seed int64, gt *genTimes) (csvPair, error) {
	t0 := time.Now()
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: eta, Tau: tau}, Seed: seed})
	gt.generate += time.Since(t0)
	if err != nil {
		return csvPair{}, err
	}
	src, err := csvBytes(p.Inst.Source)
	if err != nil {
		return csvPair{}, err
	}
	tgt, err := csvBytes(p.Inst.Target)
	if err != nil {
		return csvPair{}, err
	}
	return csvPair{Source: src, Target: tgt, Records: p.Inst.Source.Len() + p.Inst.Target.Len()}, nil
}

// figure5Pairs builds the Figure 5 instances of a run: n η = τ = 0.3
// problems, figure5PerTable over each flight-500k table of figure5Rows
// records. The seed draws the tables; the problems use the fixed generator
// seeds 1..n, so every seed gets the same mix of sampled function kinds.
// Averaging over several tables keeps one table's draw from setting the
// whole run's figures.
func figure5Pairs(seed int64, n int, gt *genTimes) ([]csvPair, error) {
	pairs := make([]csvPair, n)
	var tab *table.Table
	var err error
	for i := range pairs {
		if i%figure5PerTable == 0 {
			if tab, err = buildDataset("flight-500k", figure5Rows, seed*int64(n)+int64(i), gt); err != nil {
				return nil, err
			}
		}
		if pairs[i], err = makePair(tab, 0.3, 0.3, int64(i+1), gt); err != nil {
			return nil, fmt.Errorf("figure 5 pair %d: %w", i, err)
		}
	}
	return pairs, nil
}

// adultPairs builds n distinct adult pairs (the daemon's fresh explains)
// over one adultRows-record table.
func adultPairs(seed int64, n int, gt *genTimes) ([]csvPair, error) {
	tab, err := buildDataset("adult", adultRows, seed, gt)
	if err != nil {
		return nil, err
	}
	pairs := make([]csvPair, n)
	for i := range pairs {
		if pairs[i], err = makePair(tab, 0.3, 0.3, seed*100000+int64(i), gt); err != nil {
			return nil, fmt.Errorf("adult pair %d: %w", i, err)
		}
	}
	return pairs, nil
}
