package main

import (
	"fmt"
	"io"
	"slices"
)

// aaRow is one gated metric on one workload over the runs of an A/A set.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Min      float64   `json:"min"`
	Median   float64   `json:"median"`
	Max      float64   `json:"max"`
	// Spread is the interquartile distance over the median, the quantity
	// the acceptance rule compares with Bound.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
}

// aaRows folds the per-run end-to-end metrics of one workload into rows.
func aaRows(workload string, runs []map[string]metric) []aaRow {
	rows := make([]aaRow, 0, len(endToEndDefs))
	for _, d := range endToEndDefs {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = r[d.Name].Value
		}
		rows = append(rows, aaRow{
			Workload: workload, Metric: d.Name, Unit: d.Unit, Values: vs,
			Min: slices.Min(vs), Median: median(vs), Max: slices.Max(vs),
			Spread: spread(vs), Bound: d.Bound,
		})
	}
	return rows
}

// exceeds reports whether the row breaks the acceptance rule. setup_s is
// reported but, as in that rule, only its median is held to a bound.
func (r aaRow) exceeds() bool { return r.Metric != "setup_s" && r.Spread > r.Bound }

// aaReport is what -aa writes with -json.
type aaReport struct {
	Machine machineContext `json:"machine"`
	Seeds   []int64        `json:"seeds"`
	Rows    []aaRow        `json:"rows"`
}

// runAA runs the untraced suite n times on this binary, run i with seed
// seed+i as the acceptance rule does, and prints every gated metric's
// min/median/max and its spread against its bound. It fails if any spread
// exceeds its bound or any op failed.
func runAA(wls []workloadDef, o suiteOptions, n int, jsonPath string, stdout io.Writer) error {
	o.traceWindow = 0
	rep := aaReport{Machine: readMachineContext(o.clients)}
	rep.Machine.print(stdout)
	runs := make(map[string][]map[string]metric, len(wls))
	bad := false
	for i := 0; i < n; i++ {
		ro := o
		ro.seed = o.seed + int64(i)
		rep.Seeds = append(rep.Seeds, ro.seed)
		for _, wl := range wls {
			r, err := runWorkload(wl, ro)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", wl.Name, ro.seed, err)
			}
			fmt.Fprintf(stdout, "run %d/%d seed %d %-11s ops_per_s %.1f  attempted %d failed %d\n",
				i+1, n, ro.seed, wl.Name, r.EndToEnd["ops_per_s"].Value, r.Attempted, r.Failed)
			bad = bad || !r.correct()
			runs[wl.Name] = append(runs[wl.Name], r.EndToEnd)
		}
	}
	fmt.Fprintf(stdout, "\n%-11s %-14s %14s %14s %14s %8s %7s %7s\n",
		"workload", "metric", "min", "median", "max", "spread", "bound", "ratio")
	for _, wl := range wls {
		for _, row := range aaRows(wl.Name, runs[wl.Name]) {
			verdict := ""
			if row.exceeds() {
				verdict = "  EXCEEDS BOUND"
				bad = true
			}
			fmt.Fprintf(stdout, "%-11s %-14s %14.4f %14.4f %14.4f %7.2f%% %6.0f%% %7.2f%s\n",
				row.Workload, row.Metric, row.Min, row.Median, row.Max,
				100*row.Spread, 100*row.Bound, row.Spread/row.Bound, verdict)
			rep.Rows = append(rep.Rows, row)
		}
	}
	if jsonPath != "" {
		if err := writeJSONFile(jsonPath, rep); err != nil {
			return err
		}
	}
	if bad {
		return errFailedOps
	}
	return nil
}
