package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// judge compares a metric's runs on two commits against its bound. A
// median that moved by more than the bound is better or worse; less is
// the same. When either side's own run-to-run spread exceeds the bound
// the medians cannot carry a verdict: the row is unresolved unless every
// new run beats (or loses to) every old run.
func judge(s metricSpec, old, new []float64) string {
	if len(old) == 0 || len(new) == 0 {
		return vUnresolved
	}
	// sign > 0 when a is better than b.
	sign := func(a, b float64) float64 {
		if s.Better == higher {
			return a - b
		}
		return b - a
	}
	if spread(old) > s.Bound || spread(new) > s.Bound {
		allBetter, allWorse := true, true
		for _, n := range new {
			for _, o := range old {
				allBetter = allBetter && sign(n, o) > 0
				allWorse = allWorse && sign(n, o) < 0
			}
		}
		switch {
		case allBetter:
			return vBetter
		case allWorse:
			return vWorse
		}
		return vUnresolved
	}
	mo, mn := median(old), median(new)
	switch gain := sign(mn, mo); {
	case mo == 0:
		return vUnresolved
	case gain > s.Bound*mo:
		return vBetter
	case gain < -s.Bound*mo:
		return vWorse
	}
	return vSame
}

// compareFiles prints one row per (seed, workload, end-to-end metric)
// present in both ledgers, then the count metrics that differ, and
// reports whether any row is worse.
func compareFiles(w io.Writer, oldPath, newPath string) (worse bool, err error) {
	oldL, err := readLedger(oldPath)
	if err != nil {
		return false, err
	}
	newL, err := readLedger(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s (%s, nproc %d, %s)\nnew: %s (%s, nproc %d, %s)\n",
		oldPath, oldL.Host.CPU, oldL.Host.NProc, oldL.Host.Go,
		newPath, newL.Host.CPU, newL.Host.NProc, newL.Host.Go)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seed\tworkload\tmetric\told median\tnew median\tnew/old\tspread old\tspread new\tbound\tverdict")
	rows, countDiffs, counts := 0, []string{}, 0
	for _, os := range oldL.Sets {
		for _, ns := range newL.Sets {
			if os.Seed != ns.Seed {
				continue
			}
			for _, ow := range os.Workloads {
				for _, nw := range ns.Workloads {
					if ow.Name != nw.Name {
						continue
					}
					for _, s := range endToEndSpecs {
						o, okO := ow.EndToEnd[s.Name]
						n, okN := nw.EndToEnd[s.Name]
						if !okO || !okN {
							continue
						}
						v := judge(s, o.Values, n.Values)
						worse = worse || v == vWorse
						rows++
						fmt.Fprintf(tw, "%d\t%s\t%s\t%.4f %s\t%.4f %s\t%.4f (base %.4f)\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n",
							os.Seed, ow.Name, s.Name, median(o.Values), s.Unit, median(n.Values), s.Unit,
							ratio(median(n.Values), median(o.Values)), median(o.Values),
							100*spread(o.Values), 100*spread(n.Values), 100*s.Bound, v)
					}
					for _, s := range perLayerSpecs {
						o, okO := ow.PerLayer[s.Name]
						n, okN := nw.PerLayer[s.Name]
						if s.Unit != "count" || !okO || !okN {
							continue
						}
						counts++
						if o.Value != n.Value {
							countDiffs = append(countDiffs, fmt.Sprintf("seed %d %s %s: %.0f -> %.0f (new/old %.4f, base %.0f)",
								os.Seed, ow.Name, s.Name, o.Value, n.Value, ratio(n.Value, o.Value), o.Value))
						}
					}
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if rows == 0 {
		return false, fmt.Errorf("no (seed, workload, metric) is present in both ledgers")
	}
	fmt.Fprintf(w, "count metrics: %d compared, %d differ\n", counts, len(countDiffs))
	for _, d := range countDiffs {
		fmt.Fprintln(w, "  "+d)
	}
	return worse, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
