package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"soteria"
)

// decision is the comparable part of a verdict.
type decision struct {
	Adversarial bool    `json:"adversarial"`
	RE          float64 `json:"re"`
	Class       string  `json:"class"`
}

func decOf(d *soteria.Decision) decision {
	return decision{Adversarial: d.Adversarial, RE: d.RE, Class: d.Class.String()}
}

func loadSystem(model string) (*soteria.System, error) {
	f, err := os.Open(model)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return soteria.Load(f)
}

// reference decides every input the way the correctness gate defines
// it: System.AnalyzeBatch, on a fresh system without a cache, over a
// fresh disassembly, with the input's own salt.
func reference(model string, ins []input) ([]decision, error) {
	sys, err := loadSystem(model)
	if err != nil {
		return nil, err
	}
	out := make([]decision, len(ins))
	for lo := 0; lo < len(ins); lo += 512 {
		hi := min(lo+512, len(ins))
		cfgs := make([]*soteria.CFG, 0, hi-lo)
		for _, in := range ins[lo:hi] {
			bin, err := soteria.ParseBinary(in.raw)
			if err != nil {
				return nil, err
			}
			cfg, err := soteria.Disassemble(bin)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, cfg)
		}
		decs, err := sys.AnalyzeBatch(cfgs, salts(ins[lo:hi]))
		if err != nil {
			return nil, err
		}
		for i, d := range decs {
			out[lo+i] = decOf(d)
		}
	}
	return out, nil
}

// check compares decisions with the reference; each mismatch counts as
// a failed operation.
func (b *bench) check(what string, got, want []decision) {
	for i := range got {
		if got[i] != want[i] {
			b.res.mismatch("%s %d: got %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// quality scores decisions against the generator's ground truth. Callers
// pass reference decisions for an input set fixed by the seed; served
// decisions that differ from them already count as failures.
func (b *bench) quality(ins []input, got []decision) {
	var geaN, geaHit, cleanN, cleanFlag, cleanRight int
	for i, in := range ins {
		if in.gea {
			geaN++
			if got[i].Adversarial {
				geaHit++
			}
			continue
		}
		cleanN++
		if got[i].Adversarial {
			cleanFlag++
		}
		if got[i].Class == in.class.String() {
			cleanRight++
		}
	}
	r := b.res
	r.add("ae_detect_rate", ratio(float64(geaHit), float64(geaN)), "ratio", geaN, "GEA samples flagged")
	r.add("clean_fpr", ratio(float64(cleanFlag), float64(cleanN)), "ratio", cleanN, "clean samples flagged")
	r.add("class_acc", ratio(float64(cleanRight), float64(cleanN)), "ratio", cleanN, "clean samples classified right")
}

// scanCold is the offline corpus scan: one caller runs
// AnalyzeBinaryBatch over fresh binaries, in-memory cache attached as
// file mode attaches it, every key new.
func (b *bench) scanCold() error {
	var sys *soteria.System
	var cache *soteria.Cache
	var reg *soteria.Registry
	if b.tr != nil {
		reg = soteria.NewRegistry()
	}
	model, err := b.setupRepeated(func(model string) (func(), error) {
		s, err := loadSystem(model)
		if err != nil {
			return nil, err
		}
		c, err := soteria.OpenCache(soteria.CacheConfig{Obs: reg})
		if err != nil {
			return nil, err
		}
		if err := s.AttachCache(c); err != nil {
			c.Close()
			return nil, err
		}
		sys, cache = s, c
		return func() { c.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer cache.Close()
	sys.Instrument(reg)

	batch := b.cfg.ScanBatch
	warm, err := genInputs(b.seed, streamWarmup, 0, batch, b.cfg.GEAShare)
	if err != nil {
		return err
	}
	if _, err := sys.AnalyzeBinaryBatch(raws(warm), salts(warm)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	before, err := snapshotOf(reg)
	if err != nil {
		return err
	}

	// Closed loop: the next batch is generated (untimed) and scanned
	// once the previous one returns, until the scans add up to the run
	// length. A traced run keeps its first half untraced, so the two
	// halves give trace.overhead_ratio.
	var ins []input
	var got []decision
	var lat []float64
	var busy, plainBusy, tracedBusy time.Duration
	var cpu float64
	var plainN, tracedN int
	for k := 0; busy.Seconds() < b.seconds; k++ {
		in, err := genInputs(b.seed, streamTimed, len(ins), batch, b.cfg.GEAShare)
		if err != nil {
			return err
		}
		traced := b.tr != nil && busy.Seconds() >= b.seconds/2
		// Collect the generator's garbage now, so the timed call pays
		// only for its own.
		runtime.GC()
		c0 := selfCPUSeconds()
		t := time.Now()
		decs, err := sys.AnalyzeBinaryBatch(raws(in), salts(in))
		end := time.Now()
		cpu += selfCPUSeconds() - c0
		if err != nil {
			return err
		}
		dt := end.Sub(t)
		if traced {
			b.tr.add(b.tr.id(), 0, int64(k), "scan.batch", t, end)
			tracedBusy += dt
			tracedN += len(in)
		} else {
			plainBusy += dt
			plainN += len(in)
		}
		busy += dt
		for _, d := range decs {
			got = append(got, decOf(d))
			lat = append(lat, ms(dt))
		}
		ins = append(ins, in...)
	}
	rss := selfRSSMB()
	after, err := snapshotOf(reg)
	if err != nil {
		return err
	}

	r := b.res
	n := len(ins)
	r.Attempted += n
	r.add("samples_per_s", float64(n)/busy.Seconds(), "1/s", n, fmt.Sprintf("%d-sample batches, mean %.0f CFG nodes", batch, meanNodes(ins)))
	tq := tailQuantile(n)
	r.add("p50_ms", quantile(append([]float64(nil), lat...), 0.5), "ms", n, "batch call start to its verdicts")
	r.add("p99_ms", quantile(lat, tq), "ms", n, fmt.Sprintf("q=%.4g", tq))
	r.add("cpu_ms", cpu*1e3/float64(n), "ms", n, "CPU time of the scanning process per sample, during the scans")
	r.add("rss_mb", rss, "MB", 1, "peak RSS of the scanning process")

	want, err := reference(model, ins)
	if err != nil {
		return err
	}
	b.check("scan sample", got, want)
	// Quality is scored from the reference on a fixed prefix of the
	// timed stream, so it repeats exactly for a seed however many
	// batches the run got through. A short run scores extra inputs.
	qn := b.cfg.QualitySamples
	if len(ins) < qn {
		extra, err := genInputs(b.seed, streamTimed, len(ins), qn-len(ins), b.cfg.GEAShare)
		if err != nil {
			return err
		}
		w, err := reference(model, extra)
		if err != nil {
			return err
		}
		ins, want = append(ins, extra...), append(want, w...)
	}
	b.quality(ins[:qn], want[:qn])

	if b.tr == nil {
		return nil
	}
	r.add("trace.overhead_ratio", ratio(tracedBusy.Seconds()/float64(tracedN), plainBusy.Seconds()/float64(plainN)), "ratio", n, "traced half vs untraced half, time per sample")
	b.pipelineMetrics(before, after)
	b.storeMetrics(before, after)
	if err := b.probeLayers(sys, ins); err != nil {
		return err
	}
	return b.probeTraining()
}

// pipelineMetrics adds the core layer's per-chunk stage means from the
// exact histogram sums.
func (b *bench) pipelineMetrics(before, after metricsSnap) {
	ext, n := histDelta(before, after, "pipeline.extract_ns")
	b.res.add("core.extract_ms", ext/1e6, "ms", int(n), "per pipeline chunk")
	score, n := histDelta(before, after, "pipeline.score_ns")
	b.res.add("core.score_ms", score/1e6, "ms", int(n), "per pipeline chunk")
}

// storeMetrics adds the cache layer's hit ratio, hit time and size.
func (b *bench) storeMetrics(before, after metricsSnap) {
	hits := after.count("cache.hit") - before.count("cache.hit")
	misses := after.count("cache.miss") - before.count("cache.miss")
	b.res.add("store.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses), "")
	hitNs, n := histDelta(before, after, "cache.hit_ns")
	b.res.add("store.hit_us", hitNs/1e3, "us", int(n), "")
	b.res.add("store.bytes_mb", after.count("cache.bytes")/1e6, "MB", 1, "live cache bytes at the end")
}
