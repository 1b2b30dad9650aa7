// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is a function returning a printable
// result; cmd/proteusbench and the root benchmark suite drive them.
//
// Figs. 4–7 are trace-driven, replaying KPI surfaces from the analytic
// performance model (the substitute for the authors' recorded traces);
// Fig. 1 reports the same surfaces; Tables 4–5 and Figs. 8–9 run the real
// PolyTM/ProteusTM runtime on this machine.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cf"
	"repro/internal/machine"
	"repro/internal/perfmodel"
)

// Scale selects the experiment size: Quick for CI-speed smoke runs, Full
// for paper-scale runs.
type Scale int

const (
	// Quick shrinks workload counts and run times.
	Quick Scale = iota
	// Full uses paper-scale parameters.
	Full
)

// workloadCount returns the trace-driven workload population.
func (s Scale) workloadCount() int {
	if s == Quick {
		return 120
	}
	return 300
}

// repeats returns the number of repetitions for randomized experiments.
func (s Scale) repeats() int {
	if s == Quick {
		return 1
	}
	return 3
}

// truthFor builds the ground-truth KPI matrix for a machine profile.
func truthFor(prof machine.Profile, n int, kind perfmodel.KPIKind, seed uint64) (*perfmodel.Generator, []perfmodel.Workload, *cf.Matrix) {
	gen := &perfmodel.Generator{Machine: prof, Seed: seed}
	ws := gen.Workloads(n)
	cfgs := prof.Configs()
	return gen, ws, gen.Matrix(ws, cfgs, kind)
}

// splitRows partitions matrix rows (and the parallel workload slice) into
// train/test with the given train fraction, interleaving so that every
// workload family straddles the split (the paper's random split).
func splitRows(m *cf.Matrix, ws []perfmodel.Workload, trainFrac float64) (train, test *cf.Matrix, trainW, testW []perfmodel.Workload) {
	train = &cf.Matrix{Cols: m.Cols}
	test = &cf.Matrix{Cols: m.Cols}
	period := 10
	cut := int(trainFrac*float64(period) + 0.5)
	for u := 0; u < m.Rows; u++ {
		if u%period < cut {
			train.Data = append(train.Data, m.Data[u])
			train.Rows++
			if ws != nil {
				trainW = append(trainW, ws[u])
			}
		} else {
			test.Data = append(test.Data, m.Data[u])
			test.Rows++
			if ws != nil {
				testW = append(testW, ws[u])
			}
		}
	}
	return train, test, trainW, testW
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
