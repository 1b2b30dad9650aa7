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
	"math"
	"strings"
	"time"

	"repro/internal/cf"
	"repro/internal/core"
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

// span is one live-run phase on the runtime's timeline clock: (from, to].
type span struct{ from, to time.Duration }

// liveRun starts rt's adapter thread and takes the system through phases
// back to back, phaseDur each: enter(p) switches it into phase p and
// returns what leaves the phase again. It stops the
// adapter after the last phase and returns each phase's span; the last
// one is open-ended.
func liveRun(rt *core.Runtime, phases int, phaseDur time.Duration, enter func(p int) func()) []span {
	rt.Start()
	start := time.Now()
	spans := make([]span, phases)
	for p := range spans {
		spans[p].from = time.Since(start)
		if p > 0 {
			spans[p-1].to = spans[p].from
		}
		leave := enter(p)
		time.Sleep(phaseDur)
		leave()
	}
	spans[phases-1].to = math.MaxInt64
	rt.Stop()
	return spans
}

// steadyMean is the mean KPI of the timeline's steady (non-exploring,
// non-zero) points in (from, to]; zero when there is none.
func steadyMean(timeline []core.TimelinePoint, from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, pt := range timeline {
		if pt.At <= from || pt.At > to || pt.Exploring || pt.KPI == 0 {
			continue
		}
		sum += pt.KPI
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
