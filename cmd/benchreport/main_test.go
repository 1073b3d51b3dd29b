package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: soteria
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable5Features         	       3	 374048166 ns/op	180626053 B/op	 5367817 allocs/op
BenchmarkRandomWalks64-8        	    7425	    195067 ns/op	  112961 B/op	    3211 allocs/op
BenchmarkFeatureExtraction      	     920	   1396385.5 ns/op
BenchmarkAnalyzeBatch           	     400	  13390000 ns/op	      4780.2 samples/s	    1564 B/op	      64 allocs/op
PASS
ok  	soteria	24.312s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Pkg != "soteria" {
		t.Fatalf("header = %+v", rep)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkTable5Features" || b0.Iterations != 3 ||
		b0.NsPerOp != 374048166 || b0.BytesPerOp != 180626053 || b0.AllocsPerOp != 5367817 {
		t.Fatalf("b0 = %+v", b0)
	}
	b1 := rep.Benchmarks[1]
	if b1.Name != "BenchmarkRandomWalks64" || b1.Procs != 8 || b1.AllocsPerOp != 3211 {
		t.Fatalf("b1 = %+v", b1)
	}
	b2 := rep.Benchmarks[2]
	if b2.NsPerOp != 1396385.5 || b2.BytesPerOp != 0 {
		t.Fatalf("b2 = %+v", b2)
	}
	if b2.Metrics != nil {
		t.Fatalf("b2 has no custom metrics, got %v", b2.Metrics)
	}
	b3 := rep.Benchmarks[3]
	if b3.Name != "BenchmarkAnalyzeBatch" || b3.NsPerOp != 13390000 ||
		b3.BytesPerOp != 1564 || b3.AllocsPerOp != 64 {
		t.Fatalf("b3 = %+v", b3)
	}
	if got := b3.Metrics["samples/s"]; got != 4780.2 {
		t.Fatalf("b3 samples/s = %v, want 4780.2", got)
	}
}

// TestMetricsRoundTripJSON pins the schema: custom b.ReportMetric units
// survive encode -> decode, and results without them omit the field.
func TestMetricsRoundTripJSON(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"metrics":{"samples/s":4780.2}`) {
		t.Fatalf("encoded report missing metrics map:\n%s", data)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Benchmarks[3].Metrics["samples/s"]; got != 4780.2 {
		t.Fatalf("round-tripped samples/s = %v, want 4780.2", got)
	}
}

func TestParseBadMetricErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX 5 100 ns/op abc samples/s\n")); err == nil {
		t.Fatal("malformed custom metric value should error")
	}
}

func TestParseEmptyErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("no benchmark lines should error")
	}
}

func TestParseBadLineErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX abc 5 ns/op\n")); err == nil {
		t.Fatal("bad iteration count should error")
	}
}

// TestStampRecordsMachine pins that every report carries the core
// count and GOMAXPROCS it was measured under, in its JSON form too.
func TestStampRecordsMachine(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	stamp(rep, "go test -bench .")
	if rep.NProc != runtime.NumCPU() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("nproc %d, GOMAXPROCS %d; want %d, %d",
			rep.NProc, rep.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	if rep.GeneratedAt == "" || rep.Command != "go test -bench ." {
		t.Fatalf("generatedAt %q, command %q", rep.GeneratedAt, rep.Command)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"nproc":`, `"gomaxprocs":`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("encoded report missing %s:\n%s", field, data)
		}
	}
}
