package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soteria/internal/obs"
)

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-rate", "0"},
		{"-rate", "-5"},
		{"-duration", "0s"},
		{"-corpus", "0"},
		{"-repeat", "1.5"},
		{"stray-arg"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v): want usage error, got nil", args)
		}
	}
}

// TestScheduleDeterministic pins the schedule contract: the same seed
// yields byte-identical traffic, and the repeat knob controls the
// salt mix exactly — repeated arrivals reuse their binary's stable
// salt, fresh arrivals carry salts no other arrival shares.
func TestScheduleDeterministic(t *testing.T) {
	a := buildSchedule(7, 100, time.Second, 8, 0.5)
	b := buildSchedule(7, 100, time.Second, 8, 0.5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) != 100 {
		t.Fatalf("schedule length %d, want 100", len(a))
	}

	allRepeat := buildSchedule(7, 50, time.Second, 8, 1.0)
	for _, ar := range allRepeat {
		if ar.salt != int64(ar.body) {
			t.Fatalf("repeat=1 arrival has fresh salt %d (body %d)", ar.salt, ar.body)
		}
	}
	allFresh := buildSchedule(7, 50, time.Second, 8, 0.0)
	seen := map[int64]bool{}
	for _, ar := range allFresh {
		if ar.salt < 8 {
			t.Fatalf("repeat=0 arrival has stable salt %d", ar.salt)
		}
		if seen[ar.salt] {
			t.Fatalf("fresh salt %d reused", ar.salt)
		}
		seen[ar.salt] = true
	}

	// Arrivals sit on the open-loop clock: offset i/rate exactly.
	for i, ar := range allFresh[:5] {
		want := time.Duration(float64(i) / 50 * float64(time.Second))
		if ar.at != want {
			t.Fatalf("arrival %d at %v, want %v", i, ar.at, want)
		}
	}
}

// TestOpenLoopOffersFullSchedule is the open-loop pin: a server much
// slower than the arrival interval must not slow the offered load
// down. A closed-loop driver with one worker would complete ~4
// requests in this configuration; the open-loop driver offers all 20
// on schedule and finishes in about duration + one service time.
func TestOpenLoopOffersFullSchedule(t *testing.T) {
	const delay = 150 * time.Millisecond
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		time.Sleep(delay)
		fmt.Fprintln(w, `{"adversarial":false,"re":0,"class":"Benign"}`)
	}))
	defer srv.Close()

	cfg := genConfig{target: srv.URL, rate: 40, duration: 500 * time.Millisecond, timeout: 10 * time.Second}
	schedule := buildSchedule(1, cfg.rate, cfg.duration, 1, 1.0)
	if len(schedule) != 20 {
		t.Fatalf("schedule length %d, want 20", len(schedule))
	}
	start := time.Now()
	sum := execute(cfg, [][]byte{[]byte("stub")}, schedule)
	wall := time.Since(start)

	if sum.offered != 20 || sum.served != 20 {
		t.Fatalf("offered=%d served=%d, want 20/20", sum.offered, sum.served)
	}
	if hits.Load() != 20 {
		t.Fatalf("server saw %d requests, want 20", hits.Load())
	}
	// Open loop: ~625ms (last arrival at 475ms + 150ms service), far
	// below the 3s a serialized closed loop would need. Generous bound
	// for slow CI machines.
	if wall > 2*time.Second {
		t.Fatalf("run took %v; arrivals appear to wait for completions", wall)
	}
	if sum.p50 <= 0 {
		t.Fatal("no served-latency quantiles recorded")
	}
}

// TestOutcomeClassification: 200 is served, 503 is shed, anything else
// is an error — straight from the response the server actually sent.
func TestOutcomeClassification(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		salt, _ := strconv.Atoi(r.URL.Query().Get("salt"))
		switch salt % 3 {
		case 0:
			fmt.Fprintln(w, `{}`)
		case 1:
			http.Error(w, "saturated", http.StatusServiceUnavailable)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()

	schedule := make([]arrival, 9)
	for i := range schedule {
		schedule[i] = arrival{salt: int64(i)}
	}
	cfg := genConfig{target: srv.URL, rate: 1000, timeout: 5 * time.Second}
	sum := execute(cfg, [][]byte{[]byte("stub")}, schedule)
	if sum.served != 3 || sum.shed != 3 || sum.errors != 3 {
		t.Fatalf("served=%d shed=%d errors=%d, want 3/3/3", sum.served, sum.shed, sum.errors)
	}
}

// TestBenchLineFormat: the -bench line must parse as a `go test
// -bench` result — name, iteration count, then value/unit pairs —
// because cmd/benchreport ingests it verbatim.
func TestBenchLineFormat(t *testing.T) {
	var out bytes.Buffer
	report(&out, genConfig{benchName: "Loadgen/fleet=4"}, summary{
		offered: 100, served: 90, shed: 8, errors: 2,
		wall: time.Second, meanNs: 1.5e6, p50: 1e6, p99: 3e6, p999: 9e6,
	})
	var benchLine string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "Benchmark") {
			benchLine = line
		}
	}
	if benchLine == "" {
		t.Fatalf("no Benchmark line in report output:\n%s", out.String())
	}
	fields := strings.Fields(benchLine)
	if fields[0] != "BenchmarkLoadgen/fleet=4" {
		t.Fatalf("bench name %q", fields[0])
	}
	if n, err := strconv.ParseInt(fields[1], 10, 64); err != nil || n != 90 {
		t.Fatalf("iterations field %q, want 90", fields[1])
	}
	if len(fields)%2 != 0 {
		t.Fatalf("value/unit pairs unbalanced: %q", benchLine)
	}
	units := map[string]bool{}
	for i := 2; i+1 < len(fields); i += 2 {
		if _, err := strconv.ParseFloat(fields[i], 64); err != nil {
			t.Fatalf("non-numeric value %q in %q", fields[i], benchLine)
		}
		units[fields[i+1]] = true
	}
	for _, u := range []string{"ns/op", "req/s", "p50-ns", "p99-ns", "p999-ns", "shed", "errors"} {
		if !units[u] {
			t.Fatalf("bench line missing unit %q: %q", u, benchLine)
		}
	}
}

// TestSaturatedQuantilesMarked: when every served latency lands past
// the histogram's top bound, Quantile can only return that bound, so
// the human line must print it as a lower bound ("≥") rather than a
// measurement, while the -bench line keeps its numeric columns.
func TestSaturatedQuantilesMarked(t *testing.T) {
	bounds := obs.DurationBuckets()
	top := bounds[len(bounds)-1]
	over := obs.NewRegistry().Histogram("over", bounds)
	for i := 0; i < 100; i++ {
		over.Observe(5 * top)
	}
	s := summary{offered: 100, served: 100, wall: time.Second, meanNs: over.Mean()}
	s.p50, s.p50Over = quantile(over, 0.50)
	s.p99, s.p99Over = quantile(over, 0.99)
	s.p999, s.p999Over = quantile(over, 0.999)
	if !s.p50Over || !s.p99Over || !s.p999Over || s.p99 != top {
		t.Fatalf("all-overflow histogram: p99=%v over=%v/%v/%v, want saturated at %v", s.p99, s.p50Over, s.p99Over, s.p999Over, top)
	}
	var out bytes.Buffer
	report(&out, genConfig{benchName: "Loadgen/over"}, s)
	bound := time.Duration(top).String()
	if want := fmt.Sprintf("p50=≥%s p99=≥%s p999=≥%s", bound, bound, bound); !strings.Contains(out.String(), want) {
		t.Fatalf("report does not mark saturated quantiles (want %q):\n%s", want, out.String())
	}
	if want := fmt.Sprintf(" %.0f p99-ns ", top); !strings.Contains(out.String(), want) {
		t.Fatalf("bench line lost its numeric p99 column (want %q):\n%s", want, out.String())
	}

	inRange := obs.NewRegistry().Histogram("in", bounds)
	inRange.Observe(top / 4)
	if _, o := quantile(inRange, 0.99); o {
		t.Fatal("in-range quantile reported as saturated")
	}
}

// TestCorpusDeterministic: the binary pool is a pure function of the
// seed, so two loadgen runs offer identical bytes.
func TestCorpusDeterministic(t *testing.T) {
	a, err := buildCorpus(3, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpus(3, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("corpus binary %d differs between same-seed builds", i)
		}
	}
	if bytes.Equal(a[0], a[1]) {
		t.Fatal("corpus binaries are not distinct")
	}
}
