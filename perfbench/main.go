// Command perfbench is the Soteria benchmark. One invocation runs one
// seeded workload against the soteria binary built from this checkout
// and the public soteria API, checks every decision against an
// in-process reference, prints every metric by name with its unit and
// sample count, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the JSON carries the end-to-end metrics BENCHMARK.json
// names; with -trace 1 it carries the per-layer metrics, timed from the
// benchmark's own code around calls into each layer.
//
// Workloads (see workloads.json for their sizes and rates):
//
//	scan-cold     closed loop: AnalyzeBinaryBatch over fresh binaries
//	serve-miss    open loop: fresh binaries to a soteria -serve process
//	serve-repeat  open loop: repeat binaries through soteria -fleet
//
// Run it through run.sh, which builds both binaries first
// (--workload all runs the three in turn):
//
//	bash perfbench/run.sh --workload scan-cold --seed 1 --seconds 10 --trace 0
//
// `perfbench compare a.json b.json` diffs two result files and refuses
// results taken on different CPUs.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

//go:embed workloads.json
var configJSON []byte

// config is workloads.json: the fixed sizes, rates and rationale of the
// benchmark. The run seed changes the inputs, never these numbers.
type config struct {
	Model struct {
		Seed          int64 `json:"seed"`
		TrainPerClass int   `json:"train_per_class"`
	} `json:"model"`
	SetupRepeats int     `json:"setup_repeats"`
	GEAShare     float64 `json:"gea_share"`
	ScanBatch    int     `json:"scan_batch"`
	// QualitySamples is how many scan-cold inputs the quality ratios
	// are scored on.
	QualitySamples int     `json:"quality_samples"`
	ProbeSamples   int     `json:"probe_samples"`
	Conns          int     `json:"conns"`
	TimeoutSecs    float64 `json:"timeout_s"`
	MaxLagP99MS    float64 `json:"max_lag_p99_ms"`
	SelfProbeReqs  int     `json:"self_probe_requests"`
	ServeMiss      struct {
		NominalRPS    float64   `json:"nominal_rps"`
		PeakRPS       float64   `json:"peak_rps"`
		NominalShare  float64   `json:"nominal_share"`
		WarmupSeconds float64   `json:"warmup_s"`
		Ladder        []float64 `json:"ladder"`
		StepSeconds   float64   `json:"step_s"`
		P99LimitMS    float64   `json:"p99_limit_ms"`
	} `json:"serve_miss"`
	ServeRepeat struct {
		RPS      float64 `json:"rps"`
		Pool     int     `json:"pool"`
		Variants int     `json:"variants"`
	} `json:"serve_repeat"`
	Workloads map[string]string    `json:"workloads"`
	Layers    map[string]layerNote `json:"per_layer"`
}

// layerNote says what a per-layer metric measures and which end-to-end
// metrics it should move, on which workloads.
type layerNote struct {
	Meaning string   `json:"meaning"`
	Moves   []string `json:"moves"`
}

// spec is the part of BENCHMARK.json the program reads: which metrics
// the final JSON line must carry.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "scan-cold, serve-miss, serve-repeat, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository checkout holding BENCHMARK.json")
	bin := fs.String("soteria", "", "soteria binary built from the checkout")
	work := fs.String("work", ".bench_build/run", "scratch directory for models")
	out := fs.String("out", ".bench_out", "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg config
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		return fmt.Errorf("workloads.json: %w", err)
	}
	var sp spec
	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -soteria, -seconds >= 1 and -trace 0 or 1")
	}
	inv := invocation{cfg: cfg, sp: sp, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: *root, bin: *bin, work: *work, out: *out}
	// "all" runs the three workloads one after another, each with its
	// own table and result line.
	if *workload == "all" {
		for _, w := range []string{"scan-cold", "serve-miss", "serve-repeat"} {
			if err := inv.run(w); err != nil {
				return err
			}
		}
		return nil
	}
	if _, ok := cfg.Workloads[*workload]; !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	return inv.run(*workload)
}

// invocation is the parsed command line.
type invocation struct {
	cfg                  config
	sp                   spec
	seed                 int64
	seconds              int
	trace                bool
	root, bin, work, out string
}

// run runs one workload and prints its table and result line.
func (inv invocation) run(workload string) error {
	cfg, sp, seed, seconds, trace := inv.cfg, inv.sp, inv.seed, inv.seconds, inv.trace
	root, bin, work, out := inv.root, inv.bin, inv.work, inv.out
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		cfg:     cfg,
		seed:    seed,
		seconds: float64(seconds),
		soteria: bin,
		dir:     dir,
		res:     newResult(workload, seed, trace),
	}
	if trace {
		b.tr = newTracer()
	}
	b.res.Env = recordEnv(root)
	start := time.Now()
	switch workload {
	case "scan-cold":
		err = b.scanCold()
	case "serve-miss":
		err = b.serveMiss()
	case "serve-repeat":
		err = b.serveRepeat()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	b.res.WallSeconds = time.Since(start).Seconds()
	b.res.add("fail_ratio", ratio(float64(b.res.Failed), float64(b.res.Attempted)), "ratio", b.res.Attempted, "failed, refused or mismatched over attempted")

	names := sp.EndToEnd
	if trace {
		names = sp.PerLayer
	}
	final := map[string]any{}
	for _, m := range names {
		got, ok := b.res.metric(m.Name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		final[m.Name] = map[string]any{"value": got.Value, "unit": got.Unit}
	}
	b.res.print(os.Stdout, cfg)
	if err := b.res.save(out, b.tr); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   b.res.Failed == 0 && len(b.res.Invalid) == 0,
		"attempted": b.res.Attempted,
		"failed":    b.res.Failed,
		"metrics":   final,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// bench is one invocation's state.
type bench struct {
	cfg     config
	seed    int64
	seconds float64
	soteria string
	dir     string
	tr      *tracer
	res     *result
}

// metric is one named measurement. N is the sample count behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// share is one row of the blocking-path share table.
type share struct {
	Layer string  `json:"layer"`
	US    float64 `json:"us"`
	Share float64 `json:"share"`
}

// result is everything one invocation measured.
type result struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Trace       bool      `json:"trace"`
	Env         envRecord `json:"env"`
	Metrics     []metric  `json:"metrics"`
	Shares      []share   `json:"shares,omitempty"`
	ShareBase   string    `json:"share_base,omitempty"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Mismatches  []string  `json:"mismatches,omitempty"`
	Invalid     []string  `json:"invalid,omitempty"`
	WallSeconds float64   `json:"wall_s"`
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{Workload: workload, Seed: seed, Trace: trace}
}

func (r *result) add(name string, v float64, unit string, n int, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, N: n, Note: note})
}

func (r *result) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// mismatch records one failed correctness check. Only the first few
// are kept verbatim; all of them count in Failed.
func (r *result) mismatch(format string, args ...any) {
	r.Failed++
	if len(r.Mismatches) < 20 {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *result) print(w *os.File, cfg config) {
	e := r.Env
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s model=%s\n",
		r.Workload, r.Seed, r.Trace, e.CPU, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.ModelFingerprint)
	fmt.Fprintf(w, "  why: %s\n", cfg.Workloads[r.Workload])
	for _, m := range r.Metrics {
		note := m.Note
		if n, ok := cfg.Layers[m.Name]; ok {
			if note == "" {
				note = n.Meaning
			}
			if len(n.Moves) > 0 {
				note += "; moves " + strings.Join(n.Moves, ", ")
			}
		}
		fmt.Fprintf(w, "  %-26s %14.6g %-6s n=%-7d %s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
	if len(r.Shares) > 0 {
		fmt.Fprintf(w, "  blocking-path share (%s):\n", r.ShareBase)
		rows := append([]share(nil), r.Shares...)
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].US > rows[j].US })
		for _, s := range rows {
			fmt.Fprintf(w, "    %-24s %10.1f us %6.1f%%\n", s.Layer, s.US, 100*s.Share)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d wall=%.1fs\n", r.Attempted, r.Failed, r.WallSeconds)
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "  MISMATCH %s\n", m)
	}
	for _, m := range r.Invalid {
		fmt.Fprintf(w, "  INVALID %s\n", m)
	}
}

// save writes the result (and, for a traced run, its spans) under dir.
func (r *result) save(dir string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, boolInt(r.Trace)))
	if err := writeJSON(base+".json", r); err != nil {
		return err
	}
	if tr != nil {
		return writeJSON(base+"-spans.json", tr.snapshot())
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
