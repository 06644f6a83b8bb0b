// Package prom writes the Prometheus text exposition format. Every
// /metrics family affidavitd serves — the pipeline observer's counters
// and histograms, the job queue's and the catalog's gauges — is a Row
// rendered by Write, so the format lives in one place.
package prom

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Row is one metric family: its HELP and TYPE headers and its samples.
type Row struct {
	Name, Type, Help string
	Samples          []Sample
}

// Sample is one series line: the family name plus Suffix (e.g. "_sum"),
// the rendered label set (e.g. `{mode="cold"}`, or ""), and the value.
type Sample struct {
	Suffix, Labels, Value string
}

// Write renders rows in order.
func Write(w io.Writer, rows ...Row) error {
	bw := bufio.NewWriter(w)
	for _, r := range rows {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", r.Name, r.Help, r.Name, r.Type)
		for _, s := range r.Samples {
			fmt.Fprintf(bw, "%s%s%s %s\n", r.Name, s.Suffix, s.Labels, s.Value)
		}
	}
	return bw.Flush()
}

// Int is a single-sample family with an integer value.
func Int(name, typ, help string, v int64) Row {
	return Row{name, typ, help, []Sample{{Value: strconv.FormatInt(v, 10)}}}
}

// Float is a single-sample family with a float value.
func Float(name, typ, help string, v float64) Row {
	return Row{name, typ, help, []Sample{{Value: formatFloat(v)}}}
}

// Labelled is a counter family with one sample per series, labelled
// label=key and sorted by key.
func Labelled(name, help, label string, series map[string]int64) Row {
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r := Row{Name: name, Type: "counter", Help: help}
	for _, k := range keys {
		r.Samples = append(r.Samples, Sample{Labels: "{" + label + "=" + strconv.Quote(k) + "}", Value: strconv.FormatInt(series[k], 10)})
	}
	return r
}

// Histogram is a histogram family: counts[i] is the cumulative count at
// bounds[i]; count is the +Inf bucket.
func Histogram(name, help string, bounds []float64, counts []int64, sum float64, count int64) Row {
	r := Row{Name: name, Type: "histogram", Help: help}
	bucket := func(le string, n int64) {
		r.Samples = append(r.Samples, Sample{Suffix: "_bucket", Labels: `{le="` + le + `"}`, Value: strconv.FormatInt(n, 10)})
	}
	for i, b := range bounds {
		bucket(formatFloat(b), counts[i])
	}
	bucket("+Inf", count)
	r.Samples = append(r.Samples,
		Sample{Suffix: "_sum", Value: formatFloat(sum)},
		Sample{Suffix: "_count", Value: strconv.FormatInt(count, 10)})
	return r
}

// formatFloat renders v like fmt's %g.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
