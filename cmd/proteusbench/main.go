// Command proteusbench is the experiment entry point of the reproduction:
// it enumerates the scenario registry, runs one scenario under fixed or
// auto-tuned configurations with reproducible result records, sweeps the
// scenario grid × configuration grid into a Utility-Matrix CSV, and
// regenerates the paper's figures and tables.
//
// Usage:
//
//	proteusbench list [--threads 8]
//	proteusbench run --scenario rbtree --seed 42 [--param update=0.6]
//	    [--config TL2:4t,NOrec:4t | --autotune] [--ops 20000] [--duration 2s]
//	    [--slo-rate 2000 --slo-target-ms 0.095 [--slo-tune]]
//	    [--monitor-min-dwell N] [--monitor-band F] [--explore-epsilon F]
//	proteusbench sweep --out um.csv [--scenarios rbtree,tpcc] [--window 200ms]
//	proteusbench experiment --name fig4 [--quick]
//	proteusbench bench [--benchtime 0.5s] [--filter Algorithms] [--compare BENCH_0.json]
//	proteusbench loadgen [--addr http://127.0.0.1:7411] [--conns 8] [--rate 0]
//	    [--phases read-heavy:5s,write-heavy:5s,scan:3s] [--skew 0.9]
//	    [--mput-frac 0.2] [--deadline 50ms] [--slo-p99 20ms] [--out LOADGEN.json]
//
// `run` is deterministic by default: operations execute serially against a
// virtual clock, so the same seed produces byte-identical JSON records on
// every invocation (see docs/experimentation.md). Pass --duration to
// measure real wall-clock throughput instead. `sweep` writes the CSV that
// cf.ReadCSV / proteustm.WithTrainingMatrix consume, resuming from its
// journal when interrupted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cf"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "-h", "--help", "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "proteusbench: unknown command %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteusbench:", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `proteusbench — scenario harness for the ProteusTM reproduction

Commands:
  list        enumerate scenarios, parameter schemas and the config space
  run         run one scenario under fixed or auto-tuned configurations
  sweep       measure scenario grid x config grid into a Utility-Matrix CSV
  experiment  regenerate the paper's figures/tables (fig1..fig9, all)
  bench       run the micro-benchmark regression suite, record BENCH_<n>.json
  loadgen     drive phased open-loop traffic at a running proteusd, report JSON

Run 'proteusbench <command> -h' for command flags.
`)
}

// repeatedFlag collects a repeatable --param flag.
type repeatedFlag []string

func (r *repeatedFlag) String() string     { return strings.Join(*r, ",") }
func (r *repeatedFlag) Set(s string) error { *r = append(*r, s); return nil }

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	threads := fs.Int("threads", 8, "worker slots the config space is built for")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenario.RenderList(os.Stdout, *threads)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("scenario", "", "scenario to run (see `proteusbench list`)")
	var params repeatedFlag
	fs.Var(&params, "param", "scenario parameter key=value (repeatable, comma-separable)")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	configs := fs.String("config", "", "comma-separated configuration labels (e.g. TL2:4t,\"HTM:4t GiveUp-8\"); default NOrec at min(4,threads)")
	autotune := fs.Bool("autotune", false, "run RecTM's monitor/explore/install loop instead of fixed configs")
	threads := fs.Int("threads", 8, "worker slots")
	heapWords := fs.Int("heap-words", 1<<22, "transactional heap size in 64-bit words")
	ops := fs.Uint64("ops", 20000, "deterministic-mode operation budget")
	sampleEvery := fs.Uint64("sample-every", 0, "ops per KPI sample (default ops/10)")
	opCost := fs.Duration("op-cost", time.Microsecond, "virtual time per transaction attempt (deterministic mode)")
	duration := fs.Duration("duration", 0, "wall-clock measurement window; >0 switches to timed mode")
	umPath := fs.String("um", "", "training Utility-Matrix CSV for --autotune (from `proteusbench sweep`; default synthetic)")
	sloRate := fs.Float64("slo-rate", 0, "offered rate (ops/sec) of the serving model; >0 scores auto-tuned runs as a serving deployment")
	sloTargetMs := fs.Float64("slo-target-ms", 0, "p99 latency target (ms) the serving model scores attainment against")
	sloTune := fs.Bool("slo-tune", false, "tune for throughput-under-SLO instead of raw capacity (needs --slo-rate and --slo-target-ms)")
	minDwell := fs.Int("monitor-min-dwell", 0, "monitor minimum-dwell override: 0 default, >0 samples, <0 disables the gate")
	band := fs.Float64("monitor-band", 0, "monitor hysteresis-band override: 0 default, >0 relative band, <0 disables the gate")
	exploreEps := fs.Float64("explore-epsilon", 0, "SMBO early-stop threshold override: 0 default, <0 sweeps the space exhaustively")
	out := fs.String("out", "", "write JSON records here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("run: --scenario is required (try `proteusbench list`)")
	}
	if *sloTune && (*sloRate <= 0 || *sloTargetMs <= 0) {
		return fmt.Errorf("run: --slo-tune needs --slo-rate and --slo-target-ms")
	}
	values, err := scenario.ParseAssignments(params)
	if err != nil {
		return err
	}
	spec := scenario.RunSpec{
		Scenario:        *name,
		Params:          values,
		Seed:            *seed,
		AutoTune:        *autotune,
		MaxThreads:      *threads,
		HeapWords:       *heapWords,
		Ops:             *ops,
		SampleEvery:     *sampleEvery,
		OpCost:          *opCost,
		Duration:        *duration,
		SLOOfferedRate:  *sloRate,
		SLOTargetMs:     *sloTargetMs,
		SLOTune:         *sloTune,
		MonitorMinDwell: *minDwell,
		MonitorBand:     *band,
		ExploreEpsilon:  *exploreEps,
	}
	if *configs != "" {
		if *autotune {
			return fmt.Errorf("run: --config and --autotune are mutually exclusive")
		}
		if spec.Configs, err = config.ParseList(*configs); err != nil {
			return err
		}
	}
	if *umPath != "" {
		if !*autotune {
			return fmt.Errorf("run: --um only makes sense with --autotune")
		}
		f, err := os.Open(*umPath)
		if err != nil {
			return err
		}
		um, labels, err := cf.ReadCSV(f, true)
		f.Close()
		if err != nil {
			return fmt.Errorf("run: reading %s: %w", *umPath, err)
		}
		if spec.Space, err = parseLabels(labels); err != nil {
			return err
		}
		spec.TrainKPI = um
	}

	results, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%-14s %-20s mode=%-13s ops=%-8d commits=%-8d abort-rate=%.4f kpi=%.0f/s final=%s\n",
			r.Scenario, r.Config, r.Mode, r.Ops, r.Commits, r.AbortRate, r.CommitRate, r.FinalConfig)
	}
	return nil
}

// parseLabels turns UM header labels back into the configuration space.
func parseLabels(labels []string) ([]config.Config, error) {
	cfgs := make([]config.Config, len(labels))
	for i, l := range labels {
		c, err := config.Parse(l)
		if err != nil {
			return nil, fmt.Errorf("UM column %d: %w", i, err)
		}
		cfgs[i] = c
	}
	return cfgs, nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	out := fs.String("out", "um.csv", "output Utility-Matrix CSV path")
	names := fs.String("scenarios", "", "comma-separated scenario subset (default: all)")
	threads := fs.Int("threads", 8, "worker slots")
	heapWords := fs.Int("heap-words", 1<<22, "transactional heap size in 64-bit words")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	ops := fs.Uint64("ops", 20000, "deterministic-mode ops per cell")
	window := fs.Duration("window", 200*time.Millisecond, "wall-clock window per cell: settles half a window, then measures one (0 = deterministic mode)")
	journal := fs.String("journal", "", "resume journal path (default <out>.journal; \"none\" disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := scenario.SweepSpec{
		MaxThreads: *threads,
		HeapWords:  *heapWords,
		Seed:       *seed,
		Ops:        *ops,
		Window:     *window,
		Progress:   os.Stderr,
	}
	if *names != "" {
		spec.Scenarios = strings.Split(*names, ",")
	}
	switch *journal {
	case "none":
	case "":
		spec.Journal = *out + ".journal"
	default:
		spec.Journal = *journal
	}
	res, err := scenario.Sweep(spec)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.WriteCSV(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %dx%d utility matrix to %s (%d cells measured, %d reused from journal)\n",
		res.UM.Rows, res.UM.Cols, *out, res.Measured, res.Reused)
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "", "record path (default BENCH_<n>.json at the next free index)")
	benchtime := fs.String("benchtime", "0.5s", "per-benchmark measurement budget (Go -benchtime syntax, e.g. 1s or 100x)")
	filter := fs.String("filter", "", "substring filter on benchmark names")
	note := fs.String("note", "", "free-form label stored in the record (e.g. the commit being measured)")
	compare := fs.String("compare", "", "print an old-vs-new delta table against this prior record")
	dry := fs.Bool("dry-run", false, "measure and print, but do not write a record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// testing.Benchmark honors the -test.benchtime flag, which only exists
	// after testing.Init; registering it on flag.CommandLine is harmless
	// because proteusbench parses per-command FlagSets instead.
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return fmt.Errorf("bench: invalid --benchtime: %w", err)
	}
	rec, err := bench.RunSuite(*filter, os.Stderr)
	if err != nil {
		return fmt.Errorf("bench --filter: %w", err)
	}
	rec.BenchTime = *benchtime
	rec.Note = *note
	if *compare != "" {
		old, err := bench.ReadRecord(*compare)
		if err != nil {
			return err
		}
		bench.Compare(old, rec, os.Stdout)
	}
	if *dry {
		return nil
	}
	path := *out
	if path == "" {
		var err error
		if path, err = bench.NextRecordPath("."); err != nil {
			return err
		}
	}
	if err := rec.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d benchmark results to %s\n", len(rec.Results), path)
	return nil
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7411", "proteusd base URL")
	conns := fs.Int("conns", 8, "concurrent client connections")
	rate := fs.Float64("rate", 0, "offered load in ops/sec across all connections (0 = closed-loop max)")
	phases := fs.String("phases", "read-heavy:5s,write-heavy:5s,scan:3s",
		"traffic schedule: comma-separated mix:duration (mixes: "+strings.Join(workloads.ServiceMixNames(), ", ")+")")
	keyrange := fs.Uint64("keyrange", 16384, "key range of generated operations")
	span := fs.Uint64("span", 256, "range-scan width")
	skew := fs.Float64("skew", 0, "fraction of shard-correlated traffic (sharded daemons: writes -> low shards, reads -> high shards)")
	mputFrac := fs.Float64("mput-frac", 0, "fraction of ops issued as cross-shard 4-key mput batches (batch-heavy sessions that exercise keyed fences)")
	seed := fs.Uint64("seed", 42, "per-connection operation stream seed")
	deadline := fs.Duration("deadline", 0, "per-request deadline_ms budget the daemon enforces (0 = none)")
	sloP99 := fs.Duration("slo-p99", 0, "latency target SLO attainment is reported against (0 = no attainment reporting)")
	out := fs.String("out", "", "write the JSON report here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	phaseList, err := serve.ParsePhases(*phases)
	if err != nil {
		return err
	}
	report, err := serve.RunLoadgen(serve.LoadgenOptions{
		BaseURL:  *addr,
		Conns:    *conns,
		Rate:     *rate,
		Phases:   phaseList,
		KeyRange: *keyrange,
		Span:     *span,
		Skew:     *skew,
		MPutFrac: *mputFrac,
		Seed:     *seed,
		Deadline: *deadline,
		SLOP99:   *sloP99,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: total %d ops at %.0f/s, p50=%.2fms p99=%.2fms, %d daemon reconfigurations (%s -> %s)\n",
		report.Total.Ops, report.Total.Throughput, report.Total.LatencyMs.P50, report.Total.LatencyMs.P99,
		len(report.Reconfigurations), report.StartConfig, report.FinalConfig)
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	name := fs.String("name", "all", "experiment: fig1|table4|table5|fig4|fig5|fig6|fig7|fig8|fig9|all")
	quick := fs.Bool("quick", false, "reduced scale for a fast run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Accept a bare positional name too: `proteusbench experiment fig4`.
	// Flag parsing stops at the first non-flag argument, so re-parse the
	// remainder to honor trailing flags (`experiment fig4 --quick`).
	if fs.NArg() > 0 {
		if *name == "all" {
			*name = fs.Arg(0)
		}
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("experiment: unexpected arguments %v", fs.Args())
		}
	}
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	return runExperiment(*name, scale)
}

func runExperiment(name string, scale experiments.Scale) error {
	w := os.Stdout
	type printer interface{ Print(io.Writer) }
	runners := map[string]func() (printer, error){
		"fig1":   func() (printer, error) { return experiments.Fig1(scale), nil },
		"table4": func() (printer, error) { return experiments.Table4(scale) },
		"table5": func() (printer, error) { return experiments.Table5(scale) },
		"fig4":   func() (printer, error) { return experiments.Fig4(scale) },
		"fig5":   func() (printer, error) { return experiments.Fig5(scale) },
		"fig6":   func() (printer, error) { return experiments.Fig6(scale) },
		"fig7":   func() (printer, error) { return experiments.Fig7(scale) },
		"fig8":   func() (printer, error) { return experiments.Fig8(scale) },
		"fig9":   func() (printer, error) { return experiments.Fig9(scale) },
	}
	order := []string{"fig1", "table4", "table5", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
	if name == "all" {
		for _, key := range order {
			r, err := runners[key]()
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			r.Print(w)
		}
		return nil
	}
	fn, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want %s or all)", name, strings.Join(order, "|"))
	}
	r, err := fn()
	if err != nil {
		return err
	}
	r.Print(w)
	return nil
}
