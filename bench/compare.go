package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
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

// compareFiles prints, for every workload and end-to-end metric two
// results files share, both values, how much worse the second is as a
// share of the first, and the bound BENCHMARK.json allows; the exit code
// is non-zero if any bound is exceeded or a run was incorrect.
func compareFiles(specPath string, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
		return 2
	}
	var spec benchSpec
	var a, b results
	for path, v := range map[string]any{specPath: &spec, files[0]: &a, files[1]: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tunit\tworse by\tbound\t\t")
	bad, rows := 0, 0
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(tw, "%s\toutputs\t%v\t%v\t\t\t\tINCORRECT\t\n", w.Name, ra.Correct, rb.Correct)
			bad++
		}
		for _, m := range spec.EndToEnd {
			va, oka := ra.EndToEnd[m.Name]
			vb, okb := rb.EndToEnd[m.Name]
			if !oka || !okb {
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "EXCEEDED"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.0f%%\t%s\t\n",
				w.Name, m.Name, va.Value, vb.Value, m.Unit, 100*worse, 100*m.Bound, verdict)
			rows++
		}
	}
	tw.Flush()
	switch {
	case rows == 0:
		fmt.Fprintln(os.Stderr, "bench: the files share no workload with end-to-end metrics")
		return 2
	case bad > 0:
		fmt.Printf("%d of %d comparisons outside their bound\n", bad, rows)
		return 1
	}
	fmt.Printf("all %d comparisons within their bounds\n", rows)
	return 0
}
