package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// issueBound is the tenth issue 13 wanted every timing metric to repeat
// within; the table says where the runs made resolve it.
const issueBound = 0.10

// driverLine is the last line a run prints.
type driverLine struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runAA is the A/A self-check: the same binary runs every workload n times
// (seeds seed..seed+n-1), then all of it once more, and the two sets must
// agree within the bounds BENCHMARK.json fixes. It prints each set's median
// and quartiles, the difference between the medians, and the run-to-run
// spread (IQR / median), which the acceptance driver holds to the same bound
// on every metric but setup_s. A difference or a spread over its bound is
// marked and makes the exit code 1. The last column judges the pairing
// against issue 13's 0.10 as well: where a spread or the difference exceeds
// it, a comparison on that pairing is unresolved at a tenth.
func runAA(n int, only string, seed uint64, seconds float64, benchJSON string) int {
	data, err := os.ReadFile(benchJSON)
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: --aa: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: --aa: %v\n", err)
		return 2
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range bf.Workloads {
			if only != "" && only != w.Name {
				continue
			}
			values[set][w.Name] = map[string][]float64{}
			for i := 0; i < n; i++ {
				s := seed + uint64(i)
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatUint(s, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "e2e: --aa: %s seed %d: %v\n", w.Name, s, err)
					return 2
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var dl driverLine
				if err := json.Unmarshal(lines[len(lines)-1], &dl); err != nil {
					fmt.Fprintf(os.Stderr, "e2e: --aa: %s seed %d: last line: %v\n", w.Name, s, err)
					return 2
				}
				if !dl.Correct || dl.Failed != 0 {
					fmt.Fprintf(os.Stderr, "e2e: --aa: %s seed %d: %d of %d operations failed\n", w.Name, s, dl.Failed, dl.Attempted)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %d %-10s seed %d:", set+1, w.Name, s)
				for _, m := range bf.EndToEnd {
					v := dl.Metrics[m.Name].Value
					values[set][w.Name][m.Name] = append(values[set][w.Name][m.Name], v)
					fmt.Fprintf(os.Stderr, " %s=%.6g", m.Name, v)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	exit := 0
	fmt.Printf("| workload | metric | set 1 median [q1, q3] | set 2 median [q1, q3] | spread 1 | spread 2 | medians differ | bound | at 0.10 |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range bf.Workloads {
		if values[0][w.Name] == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			ma, mb := median(a), median(b)
			diff := math.Abs(mb-ma) / math.Abs(ma)
			over := func(x float64, gated bool) string {
				if gated && x > m.Bound {
					exit = 1
					return " OVER"
				}
				return ""
			}
			sa, sb := iqrShare(a), iqrShare(b)
			tenth := "resolved"
			if math.Max(diff, math.Max(sa, sb)) > issueBound {
				tenth = "unresolved"
			}
			fmt.Printf("| %s | %s | %s | %s | %.2f %%%s | %.2f %%%s | %.2f %%%s | %.0f %% | %s |\n", w.Name, m.Name,
				quartileCell(a), quartileCell(b), 100*sa, over(sa, m.Name != "setup_s"), 100*sb, over(sb, m.Name != "setup_s"),
				100*diff, over(diff, true), 100*m.Bound, tenth)
		}
	}
	return exit
}

func quartileCell(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%.5g", median(xs))
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}
