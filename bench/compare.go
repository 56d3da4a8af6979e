package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects, per (workload, metric), the metric's value in every
// untraced or every traced run of the file.
func (f resultFile) values(traced bool) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range f.Runs {
		if r.Trace != traced {
			continue
		}
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// iqr is the distance between the first and third quartile, by the same
// method as Python's statistics.quantiles(v, n=4); 0 for fewer than two values.
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return q(3) - q(1)
}

// verdict classifies b against a for one metric: "unresolved" when either
// side's own spread exceeds the bound, "worse"/"better" when the medians
// differ by more than the bound, else "same".
func verdict(d metricDef, a, b []float64) (ratioBA float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return 1, "same"
		}
		return 0, "unresolved"
	}
	worseBy := (mb - ma) / ma
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	switch spread := max(iqr(a), iqr(b)) / ma; {
	case spread > d.Bound:
		v = "unresolved"
	case worseBy > d.Bound:
		v = "worse"
	case worseBy < -d.Bound:
		v = "better"
	default:
		v = "same"
	}
	return mb / ma, v
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both files — a's median, b's median, b÷a, the bound and the verdict —
// followed by the per-layer rows, which have no bound and get no verdict.
// It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta (%s)\tb (%s)\tb/a\tbound\tverdict\n", a.Env.Commit, b.Env.Commit)
	rows := func(defs []metricDef, traced bool) {
		va, vb := a.values(traced), b.values(traced)
		for _, s := range specs {
			for _, d := range defs {
				k := [2]string{s.name, d.Name}
				if len(va[k]) == 0 || len(vb[k]) == 0 {
					continue
				}
				if !traced {
					r, v := verdict(d, va[k], vb[k])
					worse = worse || v == "worse"
					fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n", s.name, d.Name, d.Unit, median(va[k]), median(vb[k]), r, d.Bound, v)
				} else {
					fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t-\t-\n", s.name, d.Name, d.Unit, median(va[k]), median(vb[k]), ratio(median(vb[k]), median(va[k])))
				}
			}
		}
	}
	rows(endToEnd, false)
	rows(perLayer, true)
	return worse, tw.Flush()
}
