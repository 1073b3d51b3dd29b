package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// BenchDiff compares one benchmark between a baseline report and the
// current run. Ratios are current/baseline, so values above 1 are
// slowdowns.
type BenchDiff struct {
	Name        string       `json:"name"`
	BaseNsPerOp float64      `json:"baseNsPerOp"`
	NsPerOp     float64      `json:"nsPerOp"`
	NsRatio     float64      `json:"nsRatio"`
	BaseAllocs  int64        `json:"baseAllocsPerOp"`
	Allocs      int64        `json:"allocsPerOp"`
	Regressed   bool         `json:"regressed"`
	Metrics     []MetricDiff `json:"metrics,omitempty"`
}

// MetricDiff compares one custom b.ReportMetric unit between the two
// runs. Custom metrics are informational: a direction-aware gate would
// need to know whether the unit is higher-better (samples/s) or
// lower-better, so they never flip Regressed. Base is 0 and Ratio is 0
// when the baseline predates metric capture.
type MetricDiff struct {
	Unit  string  `json:"unit"`
	Base  float64 `json:"base,omitempty"`
	Cur   float64 `json:"cur"`
	Ratio float64 `json:"ratio,omitempty"`
}

// allocNoise is the absolute allocs/op slack allowed on top of the
// ratio gate for nonzero-alloc baselines. Benchmarks whose per-op alloc
// count is tiny but not pinned to zero wobble by an allocation or two
// when the GC clears a sync.Pool between iterations; a ±2 jitter on a
// 3-alloc baseline is noise, not a leak. Zero-alloc baselines get no
// slack — those are all-or-nothing guarantees.
const allocNoise = 2

// Diff aligns the two reports' benchmarks by name and computes per-name
// deltas. A benchmark regresses when its ns/op ratio exceeds maxRegress,
// or when its allocs/op grew beyond the same ratio plus an absolute
// slack of allocNoise (with any growth from a zero-alloc baseline
// counting as a regression — zero-alloc guarantees are all-or-nothing).
// Names present in only one report are returned separately and never
// regress: a renamed or added benchmark should be reviewed, not fail
// the gate.
func Diff(base, cur *Report, maxRegress float64) (diffs []BenchDiff, onlyBase, onlyCur []string) {
	baseByName := make(map[string]Result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}
	matched := make(map[string]bool)
	for _, c := range cur.Benchmarks {
		b, ok := baseByName[c.Name]
		if !ok {
			onlyCur = append(onlyCur, c.Name)
			continue
		}
		matched[c.Name] = true
		d := BenchDiff{
			Name:        c.Name,
			BaseNsPerOp: b.NsPerOp,
			NsPerOp:     c.NsPerOp,
			BaseAllocs:  b.AllocsPerOp,
			Allocs:      c.AllocsPerOp,
		}
		if b.NsPerOp > 0 {
			d.NsRatio = c.NsPerOp / b.NsPerOp
			if d.NsRatio > maxRegress {
				d.Regressed = true
			}
		}
		switch {
		case b.AllocsPerOp == 0:
			if c.AllocsPerOp > 0 {
				d.Regressed = true
			}
		case float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*maxRegress+allocNoise:
			d.Regressed = true
		}
		d.Metrics = diffMetrics(b.Metrics, c.Metrics)
		diffs = append(diffs, d)
	}
	for name := range baseByName {
		if !matched[name] {
			onlyBase = append(onlyBase, name)
		}
	}
	sort.Strings(onlyBase)
	return diffs, onlyBase, onlyCur
}

// diffMetrics pairs the current run's custom metrics with the
// baseline's, sorted by unit for stable output. Units present only in
// the baseline are dropped (the current run no longer reports them);
// units new in the current run carry a zero Base/Ratio.
func diffMetrics(base, cur map[string]float64) []MetricDiff {
	if len(cur) == 0 {
		return nil
	}
	out := make([]MetricDiff, 0, len(cur))
	for unit, v := range cur {
		md := MetricDiff{Unit: unit, Cur: v}
		if bv, ok := base[unit]; ok {
			md.Base = bv
			if bv != 0 {
				md.Ratio = v / bv
			}
		}
		out = append(out, md)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Unit < out[j].Unit })
	return out
}

// writeDiffContext prints a header identifying both sides of a baseline
// diff — where the baseline came from, when each report was generated,
// and on what CPU — so a pasted diff is self-describing and
// cross-machine comparisons announce themselves instead of masquerading
// as regressions. Fields a report predates (old baselines had no cpu
// line) are simply omitted.
func writeDiffContext(w io.Writer, baselinePath string, base, cur *Report) {
	fmt.Fprintf(w, "baseline: %s%s\n", baselinePath, reportContext(base))
	fmt.Fprintf(w, "current:  this run%s\n", reportContext(cur))
	if base.CPU != "" && cur.CPU != "" && base.CPU != cur.CPU {
		fmt.Fprintln(w, "note: reports come from different CPUs; ns/op deltas reflect hardware as well as code")
	}
}

// sameMachine returns an error naming every machine field — cpu, nproc,
// GOMAXPROCS — on which the baseline differs from the current run, nil
// when all three match. A field the baseline predates counts as a
// difference: it cannot show the two runs are comparable.
func sameMachine(base, cur *Report) error {
	var diffs []string
	if base.CPU != cur.CPU {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", base.CPU, cur.CPU))
	}
	if base.NProc != cur.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", base.NProc, cur.NProc))
	}
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", base.GOMAXPROCS, cur.GOMAXPROCS))
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("baseline was recorded on a different machine (%s; baseline vs current): re-record it on this one",
		strings.Join(diffs, ", "))
}

// reportContext formats a report's generatedAt, platform, cpu and core
// fields as a parenthesized suffix, empty when the report carries none
// of them.
func reportContext(r *Report) string {
	var parts []string
	if r.GeneratedAt != "" {
		parts = append(parts, r.GeneratedAt)
	}
	if r.GOOS != "" || r.GOARCH != "" {
		parts = append(parts, r.GOOS+"/"+r.GOARCH)
	}
	if r.CPU != "" {
		parts = append(parts, r.CPU)
	}
	if r.NProc != 0 || r.GOMAXPROCS != 0 {
		parts = append(parts, fmt.Sprintf("nproc %d, GOMAXPROCS %d", r.NProc, r.GOMAXPROCS))
	}
	if len(parts) == 0 {
		return ""
	}
	out := " ("
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out + ")"
}

// writeDiffs renders the comparison as an aligned table plus notes on
// unmatched names, and reports whether any benchmark regressed. Custom
// metrics follow the table as informational per-benchmark lines.
func writeDiffs(w io.Writer, diffs []BenchDiff, onlyBase, onlyCur []string) bool {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\told allocs\tnew allocs\t")
	regressed := false
	for _, d := range diffs {
		delta := "n/a"
		if d.BaseNsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (d.NsRatio-1)*100)
		}
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
			regressed = true
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\t%d\t%d\t%s\n",
			d.Name, d.BaseNsPerOp, d.NsPerOp, delta, d.BaseAllocs, d.Allocs, mark)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(w, "benchreport: render diff table: %v\n", err)
	}
	for _, d := range diffs {
		for _, m := range d.Metrics {
			if m.Base != 0 {
				fmt.Fprintf(w, "%s %s: %.4g -> %.4g (%+.1f%%)\n",
					d.Name, m.Unit, m.Base, m.Cur, (m.Ratio-1)*100)
			} else {
				fmt.Fprintf(w, "%s %s: %.4g (new metric)\n", d.Name, m.Unit, m.Cur)
			}
		}
	}
	for _, name := range onlyBase {
		fmt.Fprintf(w, "only in baseline: %s\n", name)
	}
	for _, name := range onlyCur {
		fmt.Fprintf(w, "only in current run: %s\n", name)
	}
	return regressed
}
