package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cf"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/polytm"
	"repro/internal/workloads"
)

// SweepSpec describes a `proteusbench sweep`: a scenario grid × config
// grid measured into a Utility Matrix (rows = scenarios, columns =
// configurations, entries = committed transactions per second). The CSV it
// emits is the cf.ReadCSV / proteustm.WithTrainingMatrix input format, so
// a sweep on this machine replaces the synthetic training matrix with
// measured data — RecTM's offline profiling step (Algorithm 2, line 1).
type SweepSpec struct {
	// Scenarios names the rows (default: every registered scenario).
	Scenarios []string
	// Params holds optional per-scenario parameter overrides.
	Params map[string]Values
	// Space is the column grid (default config.DefaultSpace(MaxThreads)).
	Space []config.Config
	// MaxThreads is the number of worker slots (default 8).
	MaxThreads int
	// HeapWords sizes each row's transactional heap (default 1<<22).
	HeapWords int
	// Seed drives setup and operation streams.
	Seed uint64
	// Ops is the deterministic-mode per-cell operation budget (default
	// 20000). Deterministic sweeps exercise the pipeline reproducibly
	// but cannot rank configurations by real performance — use Window
	// for that.
	Ops uint64
	// OpCost is the deterministic-mode virtual cost per attempt
	// (default 1µs).
	OpCost time.Duration
	// Window selects timed mode when positive: each cell settles half a
	// window, then measures one, and scores its real commit rate.
	Window time.Duration
	// Journal, when non-empty, is a JSON-lines file recording each
	// measured cell. A sweep finding an existing journal resumes: cells
	// already recorded are reused, only missing ones are measured.
	Journal string
	// Progress, when non-nil, receives per-row progress lines.
	Progress io.Writer
}

// Mode returns the mode the spec selects.
func (spec SweepSpec) Mode() Mode {
	if spec.Window > 0 {
		return Timed
	}
	return Deterministic
}

// SweepResult is a completed sweep.
type SweepResult struct {
	// Scenarios and Labels name the UM rows and columns.
	Scenarios []string
	Labels    []string
	// UM is the measured Utility Matrix.
	UM *cf.Matrix
	// Measured and Reused count cells measured now vs. taken from the
	// journal.
	Measured, Reused int
}

// WriteCSV writes the Utility Matrix with configuration labels as header.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	return r.UM.WriteCSV(w, r.Labels)
}

// sweepCell is one journal line. Lines with Meta set fingerprint the
// measurement conditions; lines with Row/Col record one cell.
type sweepCell struct {
	Meta  string  `json:"meta,omitempty"`
	Row   string  `json:"row,omitempty"`
	Col   string  `json:"col,omitempty"`
	Value float64 `json:"value"`
}

// fingerprint identifies the measurement conditions a journal's cells were
// taken under. Resuming with different conditions would silently mix
// incomparable measurements, so loadJournal rejects a mismatch.
func (spec *SweepSpec) fingerprint() string {
	return fmt.Sprintf("seed=%d ops=%d opcost=%s window=%s threads=%d heap=%d",
		spec.Seed, spec.Ops, spec.OpCost, spec.Window, spec.MaxThreads, spec.HeapWords)
}

// loadJournal reads previously measured cells (missing file = empty).
func loadJournal(path, fingerprint string) (map[string]float64, error) {
	done := map[string]float64{}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return done, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var c sweepCell
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			continue // a torn trailing line from an interrupted sweep
		}
		if c.Meta != "" {
			if c.Meta != fingerprint {
				return nil, fmt.Errorf("journal %s was measured under %q, this sweep is %q — delete the journal or match the flags",
					path, c.Meta, fingerprint)
			}
			continue
		}
		done[c.Row+"\x00"+c.Col] = c.Value
	}
	return done, sc.Err()
}

func (spec *SweepSpec) setDefaults() {
	if len(spec.Scenarios) == 0 {
		spec.Scenarios = Names()
	}
	if spec.MaxThreads <= 0 {
		spec.MaxThreads = 8
	}
	if spec.HeapWords <= 0 {
		spec.HeapWords = 1 << 22
	}
	if spec.Ops == 0 {
		spec.Ops = 20000
	}
	if spec.OpCost <= 0 {
		spec.OpCost = time.Microsecond
	}
	if len(spec.Space) == 0 {
		spec.Space = config.DefaultSpace(spec.MaxThreads)
	}
}

// Sweep measures the grid, resuming from the journal if one exists.
func Sweep(spec SweepSpec) (*SweepResult, error) {
	spec.setDefaults()
	labels := make([]string, len(spec.Space))
	for i, c := range spec.Space {
		if err := fitsThreads(c, spec.MaxThreads); err != nil {
			return nil, err
		}
		labels[i] = c.String()
	}
	for _, name := range spec.Scenarios {
		if _, ok := Lookup(name); !ok {
			return nil, fmt.Errorf("scenario: unknown scenario %q", name)
		}
	}
	done := map[string]float64{}
	var journal io.Writer
	if spec.Journal != "" {
		var err error
		if done, err = loadJournal(spec.Journal, spec.fingerprint()); err != nil {
			return nil, fmt.Errorf("scenario: reading journal: %w", err)
		}
		fresh := len(done) == 0
		f, err := os.OpenFile(spec.Journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		journal = f
		if fresh {
			line, err := json.Marshal(sweepCell{Meta: spec.fingerprint()})
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(f, "%s\n", line); err != nil {
				return nil, err
			}
		}
	}

	res := &SweepResult{
		Scenarios: spec.Scenarios,
		Labels:    labels,
		UM:        cf.NewMatrix(len(spec.Scenarios), len(spec.Space)),
	}
	for row, name := range spec.Scenarios {
		missing := 0
		for col := range spec.Space {
			if v, ok := done[name+"\x00"+labels[col]]; ok {
				res.UM.Data[row][col] = v
				res.Reused++
			} else {
				missing++
			}
		}
		if spec.Progress != nil {
			fmt.Fprintf(spec.Progress, "[%2d/%d] %-14s %d/%d cells to measure\n",
				row+1, len(spec.Scenarios), name, missing, len(spec.Space))
		}
		if missing == 0 {
			continue
		}
		if err := sweepRow(spec, name, row, labels, res, journal); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
	}
	return res, nil
}

// sweepRow sets the scenario up once and measures its missing cells as
// one exploration, like RecTM's off-line profiling loop: each column is
// installed and scored on one Explore window of the run harness's source —
// Ops operations on the serial driver, or the wall-clock source's window
// of length Window.
func sweepRow(spec SweepSpec, name string, row int, labels []string, res *SweepResult, journal io.Writer) error {
	s, _ := Lookup(name)
	params := spec.Params[name]
	if err := s.Validate(params); err != nil {
		return err
	}
	wl, err := s.Make(params)
	if err != nil {
		return err
	}
	pool := polytm.New(spec.HeapWords, spec.MaxThreads, spec.Space[0])
	if err := wl.Setup(pool.Heap(), workloads.NewRand(spec.Seed)); err != nil {
		return fmt.Errorf("setup: %w", err)
	}

	var src core.WindowSource
	if spec.Mode() == Timed {
		d := &workloads.Driver{Workload: wl, Runner: pool, MaxThreads: spec.MaxThreads, Seed: spec.Seed}
		if err := d.Start(); err != nil {
			return err
		}
		defer d.Stop()
		src = core.NewWallClock(pool, spec.Window, core.CommitRate, nil)
	} else {
		// The windows' samples land in a record nobody reads: a row keeps
		// only its cells.
		src = serialWindows(RunSpec{MaxThreads: spec.MaxThreads, Seed: spec.Seed,
			Ops: spec.Ops, SampleEvery: spec.Ops, OpCost: spec.OpCost}, wl, pool, &Result{})
	}
	for col, cfg := range spec.Space {
		if !cf.IsMissing(res.UM.Data[row][col]) {
			continue
		}
		if err := pool.Reconfigure(cfg); err != nil {
			return err
		}
		value, _ := src.Measure(core.Explore, 1)
		res.UM.Data[row][col] = value
		res.Measured++
		if journal != nil {
			line, err := json.Marshal(sweepCell{Row: name, Col: labels[col], Value: value})
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(journal, "%s\n", line); err != nil {
				return err
			}
		}
	}
	return nil
}
