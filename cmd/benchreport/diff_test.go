package main

import (
	"strings"
	"testing"
)

func report(results ...Result) *Report {
	return &Report{Benchmarks: results}
}

func TestDiffImprovementAndRegression(t *testing.T) {
	base := report(
		Result{Name: "BenchmarkFit", NsPerOp: 1000, AllocsPerOp: 100},
		Result{Name: "BenchmarkScore", NsPerOp: 200, AllocsPerOp: 10},
	)
	cur := report(
		Result{Name: "BenchmarkFit", NsPerOp: 400, AllocsPerOp: 5},
		Result{Name: "BenchmarkScore", NsPerOp: 300, AllocsPerOp: 10},
	)
	diffs, onlyBase, onlyCur := Diff(base, cur, 1.10)
	if len(diffs) != 2 || len(onlyBase) != 0 || len(onlyCur) != 0 {
		t.Fatalf("diffs=%d onlyBase=%v onlyCur=%v", len(diffs), onlyBase, onlyCur)
	}
	fit := diffs[0]
	if fit.Name != "BenchmarkFit" || fit.Regressed || fit.NsRatio != 0.4 {
		t.Fatalf("fit = %+v", fit)
	}
	score := diffs[1]
	if !score.Regressed || score.NsRatio != 1.5 {
		t.Fatalf("score should regress at 1.5x: %+v", score)
	}
}

func TestDiffAllocRegression(t *testing.T) {
	base := report(Result{Name: "BenchmarkScore", NsPerOp: 100, AllocsPerOp: 10})
	cur := report(Result{Name: "BenchmarkScore", NsPerOp: 100, AllocsPerOp: 20})
	diffs, _, _ := Diff(base, cur, 1.10)
	if !diffs[0].Regressed {
		t.Fatal("doubling allocs/op at equal speed should regress")
	}
}

func TestDiffAllocNoiseSlack(t *testing.T) {
	// Tiny nonzero baselines wobble by an alloc or two when the GC
	// clears a sync.Pool mid-benchmark; the absolute slack absorbs
	// that without opening the gate to real growth.
	base := report(Result{Name: "BenchmarkGrad", NsPerOp: 100, AllocsPerOp: 3})
	cur := report(Result{Name: "BenchmarkGrad", NsPerOp: 100, AllocsPerOp: 4})
	diffs, _, _ := Diff(base, cur, 1.10)
	if diffs[0].Regressed {
		t.Fatalf("3 -> 4 allocs/op is pool jitter, not a regression: %+v", diffs[0])
	}
	cur.Benchmarks[0].AllocsPerOp = 6
	diffs, _, _ = Diff(base, cur, 1.10)
	if !diffs[0].Regressed {
		t.Fatal("3 -> 6 allocs/op exceeds the noise slack and should regress")
	}
}

func TestDiffZeroAllocBaselineIsAllOrNothing(t *testing.T) {
	base := report(Result{Name: "BenchmarkInfer", NsPerOp: 100, AllocsPerOp: 0})
	cur := report(Result{Name: "BenchmarkInfer", NsPerOp: 100, AllocsPerOp: 1})
	diffs, _, _ := Diff(base, cur, 2.0)
	if !diffs[0].Regressed {
		t.Fatal("any allocation against a zero-alloc baseline should regress")
	}
	cur.Benchmarks[0].AllocsPerOp = 0
	diffs, _, _ = Diff(base, cur, 2.0)
	if diffs[0].Regressed {
		t.Fatalf("unchanged zero-alloc benchmark regressed: %+v", diffs[0])
	}
}

func TestDiffWithinThresholdPasses(t *testing.T) {
	base := report(Result{Name: "BenchmarkFit", NsPerOp: 1000, AllocsPerOp: 100})
	cur := report(Result{Name: "BenchmarkFit", NsPerOp: 1090, AllocsPerOp: 105})
	diffs, _, _ := Diff(base, cur, 1.10)
	if diffs[0].Regressed {
		t.Fatalf("9%% slowdown under a 1.10 threshold regressed: %+v", diffs[0])
	}
}

func TestDiffUnmatchedNamesNeverRegress(t *testing.T) {
	base := report(
		Result{Name: "BenchmarkOld", NsPerOp: 100},
		Result{Name: "BenchmarkShared", NsPerOp: 100},
	)
	cur := report(
		Result{Name: "BenchmarkShared", NsPerOp: 100},
		Result{Name: "BenchmarkNew", NsPerOp: 1e9, AllocsPerOp: 1 << 20},
	)
	diffs, onlyBase, onlyCur := Diff(base, cur, 1.10)
	if len(diffs) != 1 || diffs[0].Name != "BenchmarkShared" {
		t.Fatalf("diffs = %+v", diffs)
	}
	if len(onlyBase) != 1 || onlyBase[0] != "BenchmarkOld" {
		t.Fatalf("onlyBase = %v", onlyBase)
	}
	if len(onlyCur) != 1 || onlyCur[0] != "BenchmarkNew" {
		t.Fatalf("onlyCur = %v", onlyCur)
	}
}

func TestDiffCarriesCustomMetrics(t *testing.T) {
	base := report(Result{Name: "BenchmarkAnalyze", NsPerOp: 200,
		Metrics: map[string]float64{"samples/s": 3000}})
	cur := report(Result{Name: "BenchmarkAnalyze", NsPerOp: 190,
		Metrics: map[string]float64{"samples/s": 4500, "walks/s": 12}})
	diffs, _, _ := Diff(base, cur, 1.10)
	d := diffs[0]
	if len(d.Metrics) != 2 {
		t.Fatalf("metrics = %+v, want 2 entries", d.Metrics)
	}
	// Sorted by unit: samples/s before walks/s.
	s := d.Metrics[0]
	if s.Unit != "samples/s" || s.Base != 3000 || s.Cur != 4500 || s.Ratio != 1.5 {
		t.Fatalf("samples/s diff = %+v", s)
	}
	w := d.Metrics[1]
	if w.Unit != "walks/s" || w.Base != 0 || w.Cur != 12 || w.Ratio != 0 {
		t.Fatalf("new-unit diff = %+v", w)
	}
	if d.Regressed {
		t.Fatal("custom metrics must never gate regression")
	}
}

func TestDiffToleratesMetriclessBaseline(t *testing.T) {
	// Reports written before metric capture have no metrics maps at all;
	// diffing against them must still surface the current run's values.
	base := report(Result{Name: "BenchmarkAnalyze", NsPerOp: 200})
	cur := report(Result{Name: "BenchmarkAnalyze", NsPerOp: 200,
		Metrics: map[string]float64{"samples/s": 4500}})
	diffs, _, _ := Diff(base, cur, 1.10)
	if len(diffs[0].Metrics) != 1 || diffs[0].Metrics[0].Cur != 4500 {
		t.Fatalf("metrics vs metricless baseline = %+v", diffs[0].Metrics)
	}
	// And a metric that drops (e.g. samples/s falling) stays informational.
	base.Benchmarks[0].Metrics = map[string]float64{"samples/s": 9000}
	diffs, _, _ = Diff(base, cur, 1.10)
	if diffs[0].Regressed {
		t.Fatal("falling custom metric must not trip the gate")
	}
}

func TestWriteDiffContext(t *testing.T) {
	base := &Report{GeneratedAt: "2026-01-02T03:04:05Z", GOOS: "linux",
		GOARCH: "amd64", CPU: "Old CPU @ 2.0GHz"}
	cur := &Report{GeneratedAt: "2026-08-07T00:00:00Z", GOOS: "linux",
		GOARCH: "amd64", CPU: "New CPU @ 3.0GHz"}
	var sb strings.Builder
	writeDiffContext(&sb, "BENCH_3.json", base, cur)
	out := sb.String()
	for _, want := range []string{
		"baseline: BENCH_3.json (2026-01-02T03:04:05Z, linux/amd64, Old CPU @ 2.0GHz)",
		"current:  this run (2026-08-07T00:00:00Z, linux/amd64, New CPU @ 3.0GHz)",
		"different CPUs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Same CPU: no cross-machine warning.
	cur.CPU = base.CPU
	sb.Reset()
	writeDiffContext(&sb, "BENCH_3.json", base, cur)
	if strings.Contains(sb.String(), "different CPUs") {
		t.Fatalf("same-CPU diff warned about hardware:\n%s", sb.String())
	}

	// A baseline predating cpu/platform capture omits the suffix rather
	// than printing empty parentheses, and cannot trigger the warning.
	sb.Reset()
	writeDiffContext(&sb, "BENCH_1.json", &Report{}, cur)
	out = sb.String()
	if !strings.Contains(out, "baseline: BENCH_1.json\n") {
		t.Errorf("field-less baseline should print bare path:\n%s", out)
	}
	if strings.Contains(out, "different CPUs") {
		t.Errorf("missing baseline CPU must not warn:\n%s", out)
	}
}

func TestWriteDiffs(t *testing.T) {
	diffs := []BenchDiff{
		{Name: "BenchmarkFit", BaseNsPerOp: 1000, NsPerOp: 400, NsRatio: 0.4, BaseAllocs: 100, Allocs: 5},
		{Name: "BenchmarkScore", BaseNsPerOp: 200, NsPerOp: 300, NsRatio: 1.5, BaseAllocs: 10, Allocs: 10, Regressed: true,
			Metrics: []MetricDiff{
				{Unit: "samples/s", Base: 3000, Cur: 4500, Ratio: 1.5},
				{Unit: "walks/s", Cur: 12},
			}},
	}
	var sb strings.Builder
	regressed := writeDiffs(&sb, diffs, []string{"BenchmarkOld"}, []string{"BenchmarkNew"})
	if !regressed {
		t.Fatal("writeDiffs should report the regression")
	}
	out := sb.String()
	for _, want := range []string{"-60.0%", "+50.0%", "REGRESSED",
		"BenchmarkScore samples/s: 3000 -> 4500 (+50.0%)",
		"BenchmarkScore walks/s: 12 (new metric)",
		"only in baseline: BenchmarkOld", "only in current run: BenchmarkNew"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSameMachineRefusesCrossMachineBaseline pins the -baseline gate:
// a baseline recorded on another CPU, core count or GOMAXPROCS — or one
// predating those fields — is refused, naming each differing field.
func TestSameMachineRefusesCrossMachineBaseline(t *testing.T) {
	cur := &Report{CPU: "Xeon @ 2.10GHz", NProc: 2, GOMAXPROCS: 2}
	same := *cur
	if err := sameMachine(&same, cur); err != nil {
		t.Fatalf("same machine refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		base Report
		want []string
	}{
		{"cpu", Report{CPU: "Xeon @ 2.70GHz", NProc: 2, GOMAXPROCS: 2}, []string{"cpu"}},
		{"nproc", Report{CPU: cur.CPU, NProc: 8, GOMAXPROCS: 2}, []string{"nproc 8 vs 2"}},
		{"gomaxprocs", Report{CPU: cur.CPU, NProc: 2, GOMAXPROCS: 1}, []string{"GOMAXPROCS 1 vs 2"}},
		{"predates fields", Report{CPU: cur.CPU}, []string{"nproc 0 vs 2", "GOMAXPROCS 0 vs 2"}},
	} {
		err := sameMachine(&tc.base, cur)
		if err == nil {
			t.Errorf("%s: cross-machine baseline accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
}
