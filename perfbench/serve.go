package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"soteria"
)

// client is the driver's HTTP side: at most conns connections, never
// more than the machine has cores.
type client struct {
	http  *http.Client
	conns int
}

func (b *bench) newClient() *client {
	conns := min(b.cfg.Conns, runtime.NumCPU())
	return &client{
		conns: conns,
		http: &http.Client{
			Timeout:   time.Duration(b.cfg.TimeoutSecs * float64(time.Second)),
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
	}
}

// analyze posts one binary and returns the served decision.
func (c *client) analyze(ctx context.Context, url string, in input) (decision, outcome) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, fmt.Sprintf("%s/analyze?salt=%d", url, in.salt), bytes.NewReader(in.raw))
	if err != nil {
		return decision{}, failed
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return decision{}, failed
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return decision{}, failed
	case resp.StatusCode == http.StatusServiceUnavailable:
		return decision{}, shed
	case resp.StatusCode != http.StatusOK:
		return decision{}, failed
	}
	var d decision
	if err := json.Unmarshal(body, &d); err != nil {
		return decision{}, failed
	}
	return d, served
}

// offer runs one open-loop phase of ins at rate against url and returns
// the records and the served decisions. A traced phase records one
// span per request.
func (b *bench) offer(ctx context.Context, c *client, url string, ins []input, rate float64, traced bool) ([]record, []decision) {
	got := make([]decision, len(ins))
	var tr *tracer
	if traced {
		tr = b.tr
	}
	base := b.tr.id()
	loop := openLoop{rate: rate, n: len(ins), conns: c.conns, send: func(ctx context.Context, i int) outcome {
		t := time.Now()
		d, out := c.analyze(ctx, url, ins[i])
		tr.add(tr.id(), 0, base*1_000_000+int64(i), "request", t, time.Now())
		got[i] = d
		return out
	}}
	return loop.run(ctx), got
}

// passes is the max-rate test: p99 within the limit, nothing shed or
// failed, and no growing backlog.
func (b *bench) passes(st phaseStats) bool {
	return st.Shed == 0 && st.Failed == 0 && st.TailMS <= b.cfg.ServeMiss.P99LimitMS && !st.Backlog
}

// phaseMetrics adds one phase's end-to-end latency metrics under a name
// suffix and returns its stats. Shed and failed arrivals sort as
// infinitely late; a quantile that lands on one reports the client
// timeout instead. They also fail the correctness gate, which finds no
// decision for them.
func (b *bench) phaseMetrics(recs []record, suffix, note string) phaseStats {
	st := summarize(recs)
	timeout := b.cfg.TimeoutSecs * 1e3
	r := b.res
	r.add("p50_ms"+suffix, finiteOr(st.P50MS, timeout), "ms", st.Offered,
		fmt.Sprintf("%s, timed from due time; send-to-done p50 %.3g ms, driver lag p50 %.3g p99 %.3g ms", note, st.ServiceP50MS, st.LagP50MS, st.LagP99MS))
	r.add("p99_ms"+suffix, finiteOr(st.TailMS, timeout), "ms", st.Offered, fmt.Sprintf("q=%.4g", st.TailQ))
	return st
}

// validDriver checks the driver kept its schedule.
func (b *bench) validDriver(recs []record, what string) {
	st := summarize(recs)
	if st.LagP99MS > b.cfg.MaxLagP99MS {
		b.res.Invalid = append(b.res.Invalid, fmt.Sprintf("%s: driver lag p99 %.1f ms over %.0f ms", what, st.LagP99MS, b.cfg.MaxLagP99MS))
	}
}

// serveMiss is the reference miss path: an open loop of fresh binaries,
// each with a salt derived from the run seed, to a freshly started
// soteria -serve process, at the nominal rate, the peak rate, and a
// ladder above it for max_rate_rps.
func (b *bench) serveMiss() error {
	ctx := context.Background()
	var srv *server
	// Also stops a server a failed set-up left running.
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	model, err := b.setupRepeated(func(model string) (func(), error) {
		s, err := b.startServer("-load", model, "-serve", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv = s
		return func() { s.stop(); srv = nil }, nil
	})
	if err != nil {
		return err
	}
	c := b.newClient()
	sm := b.cfg.ServeMiss
	warm, err := genInputs(b.seed, streamWarmup, 0, int(sm.NominalRPS*sm.WarmupSeconds), b.cfg.GEAShare)
	if err != nil {
		return err
	}
	b.offer(ctx, c, srv.url, warm, sm.NominalRPS, false)

	m0, err := scrape(ctx, srv.url)
	if err != nil {
		return err
	}
	cpu0, err := cpuOf(srv)
	if err != nil {
		return err
	}
	nomN := int(sm.NominalRPS * b.seconds * sm.NominalShare)
	nom, err := genInputs(b.seed, streamTimed, 0, nomN, b.cfg.GEAShare)
	if err != nil {
		return err
	}
	var recsN []record
	var gotN []decision
	var plainLat, tracedLat float64
	if b.tr == nil {
		recsN, gotN = b.offer(ctx, c, srv.url, nom, sm.NominalRPS, false)
	} else {
		// A traced run offers the first half untraced and the second
		// traced; trace.overhead_ratio compares their mean latency.
		h := nomN / 2
		r1, g1 := b.offer(ctx, c, srv.url, nom[:h], sm.NominalRPS, false)
		r2, g2 := b.offer(ctx, c, srv.url, nom[h:], sm.NominalRPS, true)
		plainLat, tracedLat = meanLatency(r1), meanLatency(r2)
		recsN, gotN = join(r1, r2), append(g1, g2...)
	}
	m1, err := scrape(ctx, srv.url)
	if err != nil {
		return err
	}
	peak, err := genInputs(b.seed, streamPeak, 0, int(sm.PeakRPS*b.seconds*(1-sm.NominalShare)), b.cfg.GEAShare)
	if err != nil {
		return err
	}
	recsP, gotP := b.offer(ctx, c, srv.url, peak, sm.PeakRPS, false)
	cpu1, err := cpuOf(srv)
	if err != nil {
		return err
	}

	r := b.res
	stN := b.phaseMetrics(recsN, "", fmt.Sprintf("nominal %.0f req/s", sm.NominalRPS))
	stP := b.phaseMetrics(recsP, ".peak", fmt.Sprintf("peak %.0f req/s", sm.PeakRPS))
	b.validDriver(recsN, "nominal")
	r.add("samples_per_s", float64(stN.Served)/stN.Seconds, "1/s", stN.Served, "served per second at the nominal rate")
	r.add("cpu_ms", (cpu1-cpu0)*1e3/float64(len(recsN)+len(recsP)), "ms", len(recsN)+len(recsP), "CPU time of the serving process per request, nominal and peak phases")

	// max_rate_rps: the highest offered rate that passes, stepping up
	// from nominal through peak and the ladder until one fails.
	all := append(append([]input(nil), nom...), peak...)
	got := append(append([]decision(nil), gotN...), gotP...)
	maxRate, steps := 0.0, 0
	if b.passes(stN) {
		maxRate = sm.NominalRPS
		if b.passes(stP) {
			maxRate = sm.PeakRPS
			for k, f := range sm.Ladder {
				rate := sm.PeakRPS * f
				in, err := genInputs(b.seed, streamLadder+uint64(k), 0, int(rate*sm.StepSeconds), b.cfg.GEAShare)
				if err != nil {
					return err
				}
				recs, g := b.offer(ctx, c, srv.url, in, rate, false)
				// A step may shed or fail, that is what the ladder looks
				// for; only its served decisions go to the gate.
				for i, rec := range recs {
					if rec.Out == served {
						all, got = append(all, in[i]), append(got, g[i])
					}
				}
				steps++
				if !b.passes(summarize(recs)) {
					break
				}
				maxRate = rate
			}
		}
	}
	r.add("max_rate_rps", maxRate, "1/s", steps+2, fmt.Sprintf("p99 <= %.0f ms, none shed or failed, no growing backlog", sm.P99LimitMS))
	m2, err := scrape(ctx, srv.url)
	if err != nil {
		return err
	}
	r.add("rss_mb", srv.stop(), "MB", 1, "peak RSS of the serving process")
	srv = nil

	// Miss-path validity: every timed arrival missed the cache.
	offered := float64(len(all))
	if hits, misses := m2.count("cache.hit")-m0.count("cache.hit"), m2.count("cache.miss")-m0.count("cache.miss"); hits != 0 || misses != offered {
		r.mismatch("miss path: cache.hit=%v cache.miss=%v for %v offered", hits, misses, offered)
	}
	r.Attempted += len(all)
	want, err := reference(model, all)
	if err != nil {
		return err
	}
	b.check("served miss", got, want)
	// The ladder's length varies from run to run; the nominal and peak
	// phases are fixed by the seed.
	fixed := len(nom) + len(peak)
	b.quality(all[:fixed], want[:fixed])

	if b.tr == nil {
		return nil
	}
	r.add("trace.overhead_ratio", ratio(tracedLat, plainLat), "ratio", len(recsN), "traced half vs untraced half, mean latency at the nominal rate")
	b.driverMetrics(recsN)
	b.pipelineMetrics(m0, m1)
	b.batcherMetrics(m0, m1)
	b.storeMetrics(m0, m2)
	b.serveShares(recsN, m0, m1)
	sys, err := loadSystem(model)
	if err != nil {
		return err
	}
	// The probe takes the nominal phase's inputs and more of the same
	// stream, so labeling.us.p99 rests on enough samples.
	probe, err := genInputs(b.seed, streamTimed, 0, max(nomN, b.cfg.ProbeSamples), b.cfg.GEAShare)
	if err != nil {
		return err
	}
	if err := b.probeLayers(sys, probe); err != nil {
		return err
	}
	return b.probeTraining()
}

// join appends a second phase's records after the first, shifting its
// offsets so the pair reads as one phase.
func join(a, b []record) []record {
	var end time.Duration
	for _, r := range a {
		end = max(end, r.Done)
	}
	out := append([]record(nil), a...)
	for _, r := range b {
		r.Due, r.Queued, r.Sent, r.Done = r.Due+end, r.Queued+end, r.Sent+end, r.Done+end
		out = append(out, r)
	}
	return out
}

func meanLatency(recs []record) float64 {
	xs := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.Out == served {
			xs = append(xs, ms(r.Latency()))
		}
	}
	return mean(xs)
}

// driverMetrics reports how well the driver kept its schedule.
func (b *bench) driverMetrics(recs []record) {
	st := summarize(recs)
	b.res.add("driver.lag_p99_ms", st.LagP99MS, "ms", len(recs), fmt.Sprintf("q=%.4g, dispatcher lateness", st.TailQ))
	b.res.add("driver.sent", float64(len(recs)), "count", len(recs), "")
}

// batcherMetrics adds the micro-batcher's queue wait, batch size and
// timer-flush share from exact histogram sums.
func (b *bench) batcherMetrics(before, after metricsSnap) {
	wait, n := histDelta(before, after, "batcher.wait_ns")
	b.res.add("batcher.wait_ms", wait/1e6, "ms", int(n), "submit to batch service")
	size, n := histDelta(before, after, "batcher.batch_size")
	b.res.add("batcher.batch_size", size, "count", int(n), "mean requests per batch")
	d := func(name string) float64 { return after.count(name) - before.count(name) }
	timer := d("batcher.flush_timer")
	all := timer + d("batcher.flush_full") + d("batcher.flush_close")
	b.res.add("batcher.timer_flush_ratio", ratio(timer, all), "ratio", int(all), "batches flushed by MaxWait")
}

// serveShares splits the nominal phase's mean latency into the stages
// the replica's /metrics time.
func (b *bench) serveShares(recs []record, before, after metricsSnap) {
	total := meanLatency(recs) * 1e3
	wait, _ := histDelta(before, after, "batcher.wait_ns")
	ext, _ := histDelta(before, after, "pipeline.extract_ns")
	score, _ := histDelta(before, after, "pipeline.score_ns")
	rows := []share{
		{Layer: "batcher.wait", US: wait / 1e3},
		{Layer: "core.extract", US: ext / 1e3},
		{Layer: "core.score", US: score / 1e3},
	}
	rest := total
	for _, s := range rows {
		rest -= s.US
	}
	rows = append(rows, share{Layer: "http, parse, disasm, queueing", US: rest})
	for i := range rows {
		rows[i].Share = ratio(rows[i].US, total)
	}
	b.res.Shares = rows
	b.res.ShareBase = fmt.Sprintf("mean client latency %.0f us at the nominal rate; batcher.wait may overlap extraction", total)
}

// serveRepeat is the hit path: an open loop through soteria -fleet (URL
// mode) in front of one -serve replica, resending a primed pool's
// binaries byte for byte or padded so their CFG is unchanged.
func (b *bench) serveRepeat() error {
	ctx := context.Background()
	var srv, door *server
	defer func() {
		if door != nil {
			door.stop()
		}
		if srv != nil {
			srv.stop()
		}
	}()
	model, err := b.setupRepeated(func(model string) (func(), error) {
		s, err := b.startServer("-load", model, "-serve", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d, err := b.startServer("-fleet", "127.0.0.1:0", "-replicas", s.url)
		if err != nil {
			s.stop()
			return nil, err
		}
		srv, door = s, d
		return func() { d.stop(); s.stop(); srv, door = nil, nil }, nil
	})
	if err != nil {
		return err
	}
	sr := b.cfg.ServeRepeat
	vins, err := b.repeatPool()
	if err != nil {
		return err
	}
	c := b.newClient()
	// Prime: the first variant of every pool entry, untimed. The rest
	// of each entry's variants share its CFG, so they hit too.
	prime := make([]input, 0, sr.Pool)
	for j := 0; j < sr.Pool; j++ {
		prime = append(prime, vins[j*sr.Variants])
	}
	primeRecs, primeGot := b.offer(ctx, c, door.url, prime, sr.RPS, false)

	m0, err := scrape(ctx, srv.url)
	if err != nil {
		return err
	}
	d0, err := scrape(ctx, door.url)
	if err != nil {
		return err
	}
	cpu0, err := cpuOf(srv, door)
	if err != nil {
		return err
	}
	n := int(sr.RPS * b.seconds)
	picks := make([]int, n)
	ins := make([]input, n)
	for i := range picks {
		picks[i] = repeatPick(b.seed, i, len(vins))
		ins[i] = vins[picks[i]]
	}
	var recs []record
	var got []decision
	var plainLat, tracedLat float64
	if b.tr == nil {
		recs, got = b.offer(ctx, c, door.url, ins, sr.RPS, false)
	} else {
		h := n / 2
		r1, g1 := b.offer(ctx, c, door.url, ins[:h], sr.RPS, false)
		r2, g2 := b.offer(ctx, c, door.url, ins[h:], sr.RPS, true)
		plainLat, tracedLat = meanLatency(r1), meanLatency(r2)
		recs, got = join(r1, r2), append(g1, g2...)
	}
	cpu1, err := cpuOf(srv, door)
	if err != nil {
		return err
	}
	m1, err := scrape(ctx, srv.url)
	if err != nil {
		return err
	}
	d1, err := scrape(ctx, door.url)
	if err != nil {
		return err
	}

	r := b.res
	st := b.phaseMetrics(recs, "", fmt.Sprintf("%.0f req/s through the door", sr.RPS))
	b.validDriver(recs, "repeat")
	r.add("samples_per_s", float64(st.Served)/st.Seconds, "1/s", st.Served, "served per second")
	r.add("cpu_ms", (cpu1-cpu0)*1e3/float64(n), "ms", n, "CPU time of the door and replica per request")
	var selfRows []share
	if b.tr != nil {
		// The latency probes run before the replica stops.
		if selfRows, err = b.probeSelf(ctx, model, srv.url, door.url, vins); err != nil {
			return err
		}
	}
	rssDoor := door.stop()
	door = nil
	r.add("rss_mb", srv.stop(), "MB", 1, fmt.Sprintf("peak RSS of the serving replica (door %.0f MB)", rssDoor))
	srv = nil

	want, err := reference(model, vins)
	if err != nil {
		return err
	}
	if primeSt := summarize(primeRecs); primeSt.Served != len(prime) {
		r.mismatch("prime: %d of %d served", primeSt.Served, len(prime))
	}
	for j, d := range primeGot {
		if d != want[j*sr.Variants] {
			r.mismatch("prime %d: got %+v, reference %+v", j, d, want[j*sr.Variants])
		}
	}
	wantAt := make([]decision, n)
	for i, p := range picks {
		wantAt[i] = want[p]
	}
	r.Attempted += n + len(prime)
	b.check("served repeat", got, wantAt)
	b.quality(ins, wantAt)

	if b.tr == nil {
		return nil
	}
	r.add("trace.overhead_ratio", ratio(tracedLat, plainLat), "ratio", n, "traced half vs untraced half, mean latency")
	b.driverMetrics(recs)
	b.pipelineMetrics(m0, m1)
	b.batcherMetrics(m0, m1)
	b.storeMetrics(m0, m1)
	r.add("fleet.retries", d1.count("fleet.retries")-d0.count("fleet.retries"), "count", n, "")
	r.add("fleet.shed", d1.count("fleet.shed")-d0.count("fleet.shed"), "count", n, "")
	b.res.Shares = selfRows
	b.res.ShareBase = "median latency of one hit through the door, sequential"
	sys, err := loadSystem(model)
	if err != nil {
		return err
	}
	if err := b.probeLayers(sys, vins); err != nil {
		return err
	}
	return b.probeTraining()
}

// repeatPool generates the pool and its padded variants: variant k of
// entry j is the entry itself (k=0) or padded with another entry's
// text; every variant keeps the entry's salt, class and CFG.
func (b *bench) repeatPool() ([]input, error) {
	sr := b.cfg.ServeRepeat
	pool, err := genInputs(b.seed, streamPool, 0, sr.Pool, b.cfg.GEAShare)
	if err != nil {
		return nil, err
	}
	out := make([]input, 0, sr.Pool*sr.Variants)
	for j, base := range pool {
		for k := 0; k < sr.Variants; k++ {
			v := base
			donor := pool[(j+1+k)%len(pool)].raw
			if k > 0 {
				if v.raw, err = padded(base.raw, donor, 1+(k-1)%2); err != nil {
					return nil, err
				}
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// repeatPick is arrival i's variant index, fixed by the run seed.
func repeatPick(seed int64, i, n int) int {
	return int(mix(seed, streamPool|1<<33, i) % uint64(n))
}

// probeSelf measures http.self_us and fleet.self_us from sequential
// hits: in-process parse + disassemble + Batcher submit on a primed
// in-process system, the same inputs direct to the replica, and the
// same through the door.
func (b *bench) probeSelf(ctx context.Context, model, replica, door string, vins []input) ([]share, error) {
	sys, err := loadSystem(model)
	if err != nil {
		return nil, err
	}
	cache, err := soteria.OpenCache(soteria.CacheConfig{})
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	if err := sys.AttachCache(cache); err != nil {
		return nil, err
	}
	bat := sys.NewBatcher(soteria.BatcherConfig{})
	defer bat.Close()
	submit := func(in input) (time.Duration, time.Duration, error) {
		t := time.Now()
		bin, err := soteria.ParseBinary(in.raw)
		if err != nil {
			return 0, 0, err
		}
		cfg, err := soteria.Disassemble(bin)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		_, err = bat.Submit(cfg, in.salt)
		return t1.Sub(t), time.Since(t1), err
	}
	// Prime the in-process cache from a few goroutines so submissions
	// share batches.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(vins); i += len(errs) {
				if _, _, err := submit(vins[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c := &client{http: &http.Client{Timeout: 30 * time.Second}, conns: 1}
	m := min(b.cfg.SelfProbeReqs, len(vins))
	var parse, lookup, inproc, direct, front []float64
	for i := 0; i < m; i++ {
		in := vins[repeatPick(b.seed+1, i, len(vins))]
		p, l, err := submit(in)
		if err != nil {
			return nil, err
		}
		parse, lookup = append(parse, us(p)), append(lookup, us(l))
		inproc = append(inproc, us(p+l))
		for _, t := range []struct {
			url string
			xs  *[]float64
		}{{replica, &direct}, {door, &front}} {
			t0 := time.Now()
			if _, out := c.analyze(ctx, t.url, in); out != served {
				return nil, fmt.Errorf("self probe: request to %s not served", t.url)
			}
			*t.xs = append(*t.xs, usSince(t0))
		}
	}
	httpSelf := median(direct) - median(inproc)
	fleetSelf := median(front) - median(direct)
	b.res.add("http.self_us", httpSelf, "us", m, "median direct hit minus in-process parse+disasm+submit")
	b.res.add("fleet.self_us", fleetSelf, "us", m, "median hit through the door minus direct")
	total := median(front)
	rows := []share{
		{Layer: "isa.decode+disasm", US: median(parse)},
		{Layer: "store lookup (submit)", US: median(lookup)},
		{Layer: "http.self", US: httpSelf},
		{Layer: "fleet.self", US: fleetSelf},
	}
	for i := range rows {
		rows[i].Share = ratio(rows[i].US, total)
	}
	return rows, nil
}

func finiteOr(v, fallback float64) float64 {
	if v > 1e300 || v != v {
		return fallback
	}
	return v
}
