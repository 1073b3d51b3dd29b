// Command loadgen is an open-loop load generator for the Soteria
// serving tier: it offers POST /analyze traffic (raw SOTB binaries
// from a deterministic synthetic corpus) to a -serve replica or a
// -fleet front door at a fixed arrival rate and reports what came
// back.
//
// Open loop means arrivals are scheduled on the clock — request i
// departs at start + i/rate whether or not earlier requests have
// completed. That is the property that makes overload visible: a
// closed-loop driver (fixed worker pool) slows its own offered load
// down to whatever the server sustains, hiding saturation behind
// coordinated omission, while an open-loop driver keeps the pressure
// on and forces the server to shed. Use it to measure the fleet's
// shedding behavior honestly, not just its happy-path throughput.
//
// The traffic mix is tunable: -corpus distinct binaries, and each
// arrival either repeats an already-offered (binary, salt) pair with
// probability -repeat (cache-warm traffic that exercises the replicas'
// content-addressed caches and the front door's routing affinity) or
// carries a fresh salt (a guaranteed cache miss). The schedule — every
// arrival's offset, body, and salt — is precomputed from -seed before
// the first request leaves, so two runs against the same server offer
// byte-identical traffic.
//
// The report gives offered/served/shed/error counts, sustained
// throughput, and served-latency quantiles (p50/p99/p999) estimated
// from an internal/obs histogram; a quantile past the histogram's top
// bound prints as "≥bound". -bench NAME additionally emits a
// `go test -bench`-formatted line that cmd/benchreport ingests
// (`loadgen ... | benchreport -input -`).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soteria/internal/malgen"
	"soteria/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// genConfig is the parsed flag set.
type genConfig struct {
	target     string
	rate       float64
	duration   time.Duration
	corpusN    int
	size       int
	repeat     float64
	seed       int64
	timeout    time.Duration
	deadlineMS int64
	benchName  string
}

// arrival is one precomputed schedule entry: when the request departs
// (offset from the run start) and what it carries.
type arrival struct {
	at   time.Duration
	body int   // corpus index
	salt int64 // salt query parameter
}

// summary is one run's outcome.
type summary struct {
	offered, served, shed, errors int64
	wall                          time.Duration
	meanNs                        float64
	p50, p99, p999                float64 // served latency, ns
	// p50Over, p99Over and p999Over mark quantiles whose rank fell in
	// the latency histogram's overflow bucket: the value is then the
	// top finite bound, and the true latency is only known to be at
	// least that.
	p50Over, p99Over, p999Over bool
}

func (s summary) rps() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.served) / s.wall.Seconds()
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	cfg := genConfig{}
	fs.StringVar(&cfg.target, "target", "http://127.0.0.1:8080", "base URL of the /analyze endpoint (a -serve replica or -fleet front door)")
	fs.Float64Var(&cfg.rate, "rate", 50, "offered arrival rate in requests/second")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to offer load")
	fs.IntVar(&cfg.corpusN, "corpus", 16, "distinct binaries in the traffic pool")
	fs.IntVar(&cfg.size, "size", 40, "functions per generated binary")
	fs.Float64Var(&cfg.repeat, "repeat", 0.75, "fraction of arrivals that repeat an already-offered (binary, salt) pair; the rest carry fresh salts")
	fs.Int64Var(&cfg.seed, "seed", 1, "corpus and schedule seed")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request client timeout")
	fs.Int64Var(&cfg.deadlineMS, "deadline-ms", 0, "declare this Soteria-Deadline-Ms budget on every request (0: none)")
	fs.StringVar(&cfg.benchName, "bench", "", "also print a go-bench formatted `name` line for cmd/benchreport")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.rate <= 0 || cfg.duration <= 0 {
		return fmt.Errorf("-rate and -duration must be positive")
	}
	if cfg.corpusN < 1 {
		return fmt.Errorf("-corpus must be at least 1")
	}
	if cfg.repeat < 0 || cfg.repeat > 1 {
		return fmt.Errorf("-repeat must be in [0, 1]")
	}

	corpus, err := buildCorpus(cfg.seed, cfg.corpusN, cfg.size)
	if err != nil {
		return err
	}
	schedule := buildSchedule(cfg.seed, cfg.rate, cfg.duration, cfg.corpusN, cfg.repeat)
	fmt.Fprintf(stdout, "loadgen: %s <- %d arrivals at %.1f req/s over %v (%d distinct binaries, repeat %.0f%%)\n",
		cfg.target, len(schedule), cfg.rate, cfg.duration, cfg.corpusN, cfg.repeat*100)

	sum := execute(cfg, corpus, schedule)
	report(stdout, cfg, sum)
	return nil
}

// buildCorpus generates the pool of distinct SOTB binaries, classes
// round-robined so the traffic exercises every decision path.
func buildCorpus(seed int64, n, size int) ([][]byte, error) {
	gen := malgen.NewGenerator(malgen.Config{Seed: seed})
	corpus := make([][]byte, n)
	for i := range corpus {
		s, err := gen.SampleSized(malgen.Classes[i%len(malgen.Classes)], size)
		if err != nil {
			return nil, fmt.Errorf("corpus sample %d: %w", i, err)
		}
		raw, err := s.Binary.Encode()
		if err != nil {
			return nil, fmt.Errorf("corpus sample %d: %w", i, err)
		}
		corpus[i] = raw
	}
	return corpus, nil
}

// buildSchedule precomputes every arrival: fixed-rate offsets (the
// open-loop clock) and a deterministic repeat/fresh traffic mix. A
// repeated arrival reuses its binary's stable salt — the same
// (content, salt) cache key every time — while a fresh one gets a salt
// no other arrival shares.
func buildSchedule(seed int64, rate float64, d time.Duration, corpusN int, repeat float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	schedule := make([]arrival, n)
	for i := range schedule {
		a := arrival{
			at:   time.Duration(float64(i) / rate * float64(time.Second)),
			body: rng.Intn(corpusN),
		}
		if rng.Float64() < repeat {
			a.salt = int64(a.body) // stable pair: repeat traffic
		} else {
			a.salt = int64(corpusN + i) // unique: guaranteed cache miss
		}
		schedule[i] = a
	}
	return schedule
}

// execute offers the schedule to the target. Arrivals depart on the
// precomputed clock: the dispatcher sleeps until each arrival's offset
// and fires it in its own goroutine, never waiting for completions —
// if the server falls behind, concurrency grows and the server must
// shed, which is the behavior under test.
func execute(cfg genConfig, corpus [][]byte, schedule []arrival) summary {
	reg := obs.NewRegistry()
	lat := reg.Histogram("loadgen.latency_ns", obs.DurationBuckets())
	var served, shed, errs atomic.Int64

	client := &http.Client{
		Timeout:   cfg.timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 512},
	}
	base := strings.TrimRight(cfg.target, "/")

	start := time.Now()
	var wg sync.WaitGroup
	for i := range schedule {
		a := schedule[i]
		if d := time.Until(start.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(client, base, corpus[a.body], a.salt, cfg.deadlineMS, lat, &served, &shed, &errs)
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	s := summary{
		offered: int64(len(schedule)),
		served:  served.Load(),
		shed:    shed.Load(),
		errors:  errs.Load(),
		wall:    wall,
		meanNs:  lat.Mean(),
	}
	s.p50, s.p50Over = quantile(lat, 0.50)
	s.p99, s.p99Over = quantile(lat, 0.99)
	s.p999, s.p999Over = quantile(lat, 0.999)
	return s
}

// quantile returns h's q-quantile and whether its rank falls in the
// overflow bucket, where Histogram.Quantile saturates at the top finite
// bound.
func quantile(h *obs.Histogram, q float64) (float64, bool) {
	buckets := h.Buckets()
	var total, finite uint64
	for i, b := range buckets {
		total += b.Count
		if i < len(buckets)-1 {
			finite += b.Count
		}
	}
	return h.Quantile(q), total > 0 && float64(finite) < q*float64(total)
}

// fmtLatency renders a quantile for the human-readable line, as
// "≥bound" when it saturated in the overflow bucket.
func fmtLatency(ns float64, over bool) string {
	d := time.Duration(ns).Round(time.Microsecond).String()
	if over {
		return "≥" + d
	}
	return d
}

// fire sends one request and classifies the outcome: 200 served (and
// its latency observed), 503 shed, everything else — transport errors
// included — an error.
func fire(client *http.Client, base string, body []byte, salt, deadlineMS int64, lat *obs.Histogram, served, shed, errs *atomic.Int64) {
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/analyze?salt=%d", base, salt), bytes.NewReader(body))
	if err != nil {
		errs.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if deadlineMS > 0 {
		req.Header.Set("Soteria-Deadline-Ms", fmt.Sprint(deadlineMS))
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		errs.Add(1)
		return
	}
	_, copyErr := io.Copy(io.Discard, resp.Body)
	closeErr := resp.Body.Close()
	switch {
	case copyErr != nil || closeErr != nil:
		errs.Add(1)
	case resp.StatusCode == http.StatusOK:
		lat.Observe(float64(time.Since(t0).Nanoseconds()))
		served.Add(1)
	case resp.StatusCode == http.StatusServiceUnavailable:
		shed.Add(1)
	default:
		errs.Add(1)
	}
}

// report prints the human summary and, when -bench is set, the
// go-bench formatted line benchreport parses: iteration count is
// served requests, ns/op the mean served latency, and the custom
// units carry throughput, quantiles, and loss counts.
func report(w io.Writer, cfg genConfig, s summary) {
	fmt.Fprintf(w, "loadgen: served=%d shed=%d errors=%d of %d offered in %v\n",
		s.served, s.shed, s.errors, s.offered, s.wall.Round(time.Millisecond))
	fmt.Fprintf(w, "loadgen: sustained %.1f req/s; served latency p50=%s p99=%s p999=%s\n",
		s.rps(), fmtLatency(s.p50, s.p50Over), fmtLatency(s.p99, s.p99Over), fmtLatency(s.p999, s.p999Over))
	if cfg.benchName != "" {
		fmt.Fprintf(w, "Benchmark%s 	 %d 	 %.0f ns/op 	 %.2f req/s 	 %.0f p50-ns 	 %.0f p99-ns 	 %.0f p999-ns 	 %d shed 	 %d errors\n",
			cfg.benchName, s.served, s.meanNs, s.rps(), s.p50, s.p99, s.p999, s.shed, s.errors)
	}
}
