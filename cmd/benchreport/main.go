// Command benchreport runs `go test -bench` and distills the output
// into a machine-readable JSON report, so the performance trajectory of
// the extraction pipeline stays comparable across PRs (BENCH_<n>.json
// at the repo root records each PR's numbers).
//
// Usage:
//
//	benchreport -bench 'Extract|Walk|Gram|Table5' -pkg . -out BENCH_1.json
//	go test -bench=. -benchmem | benchreport -input - -out BENCH_1.json
//
// Custom b.ReportMetric units ("samples/s" and friends) are captured
// into each benchmark's "metrics" map rather than dropped, so
// throughput records survive alongside ns/op.
//
// Each report records the machine it ran on: the CPU model from the
// benchmark header, plus the core count (nproc) and GOMAXPROCS of the
// reporting process, whose environment a `go test` it runs inherits.
//
// With -baseline the run is also diffed against a previous report:
// per-benchmark ns/op and allocs/op deltas go to stdout (custom-metric
// deltas are listed informationally below the table), and the exit
// status is nonzero when any shared benchmark slowed down (or grew its
// allocation count) by more than -max-regress allows. A baseline whose
// cpu, nproc or GOMAXPROCS differs from the current run's is refused
// with a nonzero exit before any diff: a cross-machine delta measures
// the hardware as much as the code.
//
//	benchreport -bench 'Fit|Epoch|MatMul' -pkg ./internal/... \
//	    -baseline base.json -max-regress 1.15
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line. Metrics carries every custom
// b.ReportMetric unit (e.g. "samples/s") keyed by unit string, so
// throughput numbers survive into the JSON record alongside the three
// standard units.
type Result struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"nsPerOp"`
	BytesPerOp  int64              `json:"bytesPerOp,omitempty"`
	AllocsPerOp int64              `json:"allocsPerOp,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	GeneratedAt string   `json:"generatedAt"`
	Command     string   `json:"command,omitempty"`
	GOOS        string   `json:"goos,omitempty"`
	GOARCH      string   `json:"goarch,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	NProc       int      `json:"nproc,omitempty"`
	GOMAXPROCS  int      `json:"gomaxprocs,omitempty"`
	Pkg         string   `json:"pkg,omitempty"`
	Benchmarks  []Result `json:"benchmarks"`
}

func main() {
	var (
		bench      = flag.String("bench", "Extract|Walk|Gram|Table5", "go test -bench regexp")
		pkg        = flag.String("pkg", ".", "package pattern to benchmark")
		count      = flag.Int("count", 1, "benchmark repetition count")
		out        = flag.String("out", "", "output JSON path (default stdout)")
		input      = flag.String("input", "", "parse an existing `go test -bench` output file instead of running ('-' for stdin)")
		baseline   = flag.String("baseline", "", "previous report (BENCH_<n>.json) to diff against")
		maxRegress = flag.Float64("max-regress", 1.10, "max allowed current/baseline ratio before a benchmark counts as regressed")
	)
	flag.Parse()

	var (
		raw     io.Reader
		command string
	)
	switch *input {
	case "":
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
			"-count", strconv.Itoa(*count), *pkg}
		command = "go " + strings.Join(args, " ")
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", command, err)
			os.Exit(1)
		}
		raw = strings.NewReader(string(outBytes))
	case "-":
		raw = os.Stdin
	default:
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		raw = f
	}

	rep, err := Parse(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	stamp(rep, command)

	w := io.Writer(os.Stdout)
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		outFile, w = f, f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: write: %v\n", err)
		os.Exit(1)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: close %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if *out != "" {
		fmt.Printf("benchreport: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		writeDiffContext(os.Stdout, *baseline, base, rep)
		if err := sameMachine(base, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		diffs, onlyBase, onlyCur := Diff(base, rep, *maxRegress)
		if writeDiffs(os.Stdout, diffs, onlyBase, onlyCur) {
			fmt.Fprintf(os.Stderr, "benchreport: regression beyond %.2fx vs %s\n", *maxRegress, *baseline)
			os.Exit(1)
		}
	}
}

// stamp fills the report fields the benchmark output does not carry:
// when and by what command it was made, and the reporting process's
// core count and GOMAXPROCS.
func stamp(rep *Report, command string) {
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Command = command
	rep.NProc = runtime.NumCPU()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
}

// readReport loads a previously emitted BENCH_<n>.json.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s contains no benchmarks", path)
	}
	return &rep, nil
}

// Parse reads `go test -bench -benchmem` output and extracts every
// benchmark line plus the environment header.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return rep, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkFeatureExtraction-8   920   1396385 ns/op   544020 B/op   17092 allocs/op
func parseBenchLine(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, fmt.Errorf("short benchmark line: %q", line)
	}
	res := Result{Name: fields[0]}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name, res.Procs = res.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	res.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if res.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, fmt.Errorf("bad ns/op in %q: %w", line, err)
			}
		case "B/op":
			if res.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("bad B/op in %q: %w", line, err)
			}
		case "allocs/op":
			if res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
		default:
			// Custom b.ReportMetric unit (e.g. "samples/s").
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, fmt.Errorf("bad %s in %q: %w", unit, line, err)
			}
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return res, nil
}
