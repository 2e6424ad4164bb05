package main

// Comparing two result records. A pass or fail is given only when both
// came from the same CPU model; across hosts the differences are
// reported and nothing is judged.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareRecords prints old against new metric by metric and returns
// the exit code: 1 when, on the same CPU model, an end-to-end metric
// got worse by more than its bound; 0 otherwise.
func compareRecords(w io.Writer, oldPath, newPath, specPath string) (int, error) {
	var old, cur Record
	var spec benchSpec
	for path, v := range map[string]any{oldPath: &old, newPath: &cur, specPath: &spec} {
		if err := readJSON(path, v); err != nil {
			return 0, err
		}
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		return 0, fmt.Errorf("records are of different runs: %s trace=%v vs %s trace=%v", old.Workload, old.Trace, cur.Workload, cur.Trace)
	}
	sameHost := old.Meta.CPU == cur.Meta.CPU
	fmt.Fprintf(w, "workload %s: old %s (%s), new %s (%s)\n", cur.Workload, old.Meta.Commit, old.Meta.CPU, cur.Meta.Commit, cur.Meta.CPU)
	if !sameHost {
		fmt.Fprintln(w, "CPU models differ: reporting only, no pass or fail")
	}
	if old.Meta.Inputs != cur.Meta.Inputs {
		fmt.Fprintln(w, "note: the runs measured different inputs (seed or generator differs)")
	}
	bounds := map[string]float64{}
	lower := map[string]bool{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
		lower[m.Name] = m.Better == "lower"
	}
	for _, m := range spec.PerLayer {
		lower[m.Name] = m.Better == "lower"
	}
	names := make([]string, 0, len(cur.Result.Metrics))
	for n := range cur.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	code := 0
	for _, n := range names {
		nv := cur.Result.Metrics[n].Value
		ov, ok := old.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "  %-24s new %g (absent in old)\n", n, nv)
			continue
		}
		worse := 0.0 // share of the old value by which new is worse
		if ov.Value != 0 {
			worse = (nv - ov.Value) / ov.Value
			if !lower[n] {
				worse = -worse
			}
		}
		verdict := ""
		if b, ok := bounds[n]; ok {
			verdict = "ok"
			if worse > b {
				verdict = fmt.Sprintf("WORSE than bound %g", b)
				if sameHost {
					code = 1
				}
			}
			if !sameHost {
				verdict = "reported"
			}
		}
		fmt.Fprintf(w, "  %-24s old %-14.6g new %-14.6g worse by %+7.2f%% %s\n", n, ov.Value, nv, 100*worse, verdict)
	}
	if sameHost {
		if code == 0 {
			fmt.Fprintln(w, "PASS")
		} else {
			fmt.Fprintln(w, "FAIL")
		}
	}
	return code, nil
}
