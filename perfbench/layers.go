package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"soteria"
	"soteria/internal/features"
	"soteria/internal/labeling"
	"soteria/internal/ngram"
	"soteria/internal/nn"
	"soteria/internal/walk"
)

// centralityEvery spaces the probe's extra calls: graph.CentralityFactor
// and a full features.ExtractInto cost as much as labeling itself, so
// they run on every fifth probe sample only. Five is coprime with the
// GEA period, so the subset carries its share of merges.
const centralityEvery = 5

// probeLayers times each extraction and scoring layer serially, from
// outside, on fresh decodes of the given inputs: every call gets a new
// CFG pointer, so no memo answers. It adds the per-layer metrics and
// the extraction part of the blocking-path share table.
func (b *bench) probeLayers(sys *soteria.System, ins []input) error {
	p := sys.Pipeline()
	ext := p.Extractor
	xc := ext.Config()
	dblV, lblV := ext.Vectorizers()
	if !dblV.PackedReady() || !lblV.PackedReady() {
		return fmt.Errorf("probe: model vocabulary cannot take the packed path")
	}
	wc := xc.WalkCount
	if len(ins) > b.cfg.ProbeSamples {
		ins = ins[:b.cfg.ProbeSamples]
	}
	var (
		decUS, disUS, labUS, cenUS, walkUS, cntUS, tfUS []float64
		extUS, childUS                                  []float64
		nodes, edges, steps, grams                      float64
		wk                                              walk.Walker
		v                                               features.Vectors
		comb                                            [][]float64
		dblRows, lblRows                                [][][]float64
	)
	rng := rand.New(rand.NewSource(b.seed))
	var trace []int
	counter, agg := ngram.NewGramCounter(), ngram.NewGramCounter()
	vecs := make([][]float64, 2*wc+2)
	tr := b.tr
	for i, in := range ins {
		root := tr.id()
		req := int64(i)
		// stage times one call and records its span; the bookkeeping
		// falls outside every measured interval.
		stage := func(name string, f func()) time.Duration {
			t := time.Now()
			f()
			end := time.Now()
			tr.add(tr.id(), root, req, name, t, end)
			return end.Sub(t)
		}
		// Sampled inputs also get one full ExtractInto on a CFG of their
		// own. It runs before the child layers on every other sampled
		// input and after them on the rest, so the second pass's warmer
		// caches favour neither side of features.self_us.
		sampled := i%centralityEvery == 0
		extractFirst := sampled && (i/centralityEvery)%2 == 1
		var extD time.Duration
		extract := func() error {
			b, err := soteria.ParseBinary(in.raw)
			if err != nil {
				return err
			}
			c, err := soteria.Disassemble(b)
			if err != nil {
				return err
			}
			extD = stage("features.extract", func() { _, err = ext.ExtractInto(&v, c, in.salt) })
			return err
		}
		t0 := time.Now()
		if extractFirst {
			if err := extract(); err != nil {
				return err
			}
		}
		var bin *soteria.Binary
		var cfg *soteria.CFG
		var err error
		dec := stage("isa.decode", func() { bin, err = soteria.ParseBinary(in.raw) })
		if err != nil {
			return err
		}
		dis := stage("disasm", func() { cfg, err = soteria.Disassemble(bin) })
		if err != nil {
			return err
		}
		var dbl, lbl *labeling.Labels
		lab := stage("labeling", func() { dbl, lbl = labeling.Both(cfg.G, cfg.EntryNode()) })
		// Walks, counting and TF-IDF interleave per walk exactly as
		// the extractor's packed path does, each call timed on its own.
		n := cfg.NumNodes()
		walkD := stage("walk.reset", func() { wk.Reset(cfg.G) })
		var cntD, tfD time.Duration
		for li, lv := range []struct {
			perm []int
			vz   *ngram.Vectorizer
		}{{dbl.Perm, dblV}, {lbl.Perm, lblV}} {
			agg.Reset()
			for w := 0; w < wc; w++ {
				k := li*wc + w
				walkD += stage("walk", func() {
					trace = wk.RandomInto(trace, cfg.EntryNode(), lv.perm, xc.LengthFactor*n, rng)
				})
				cntD += stage("ngram.count", func() {
					counter.Reset()
					counter.AddTrace(trace, xc.Ns)
					agg.Merge(counter)
				})
				tfD += stage("ngram.tfidf", func() { vecs[k] = lv.vz.VectorPackedInto(vecs[k], counter) })
				steps += float64(len(trace) - 1)
				grams += float64(counter.Total())
			}
			tfD += stage("ngram.tfidf", func() { vecs[2*wc+li] = lv.vz.VectorPackedInto(vecs[2*wc+li], agg) })
		}
		decUS = append(decUS, us(dec))
		disUS = append(disUS, us(dis))
		labUS = append(labUS, us(lab))
		walkUS = append(walkUS, us(walkD))
		cntUS = append(cntUS, us(cntD))
		tfUS = append(tfUS, us(tfD))
		nodes += float64(n)
		edges += float64(cfg.G.NumEdges())
		if sampled {
			cenD := stage("graph.centrality", func() { cfg.G.CentralityFactor() })
			if !extractFirst {
				if err := extract(); err != nil {
					return err
				}
			}
			cenUS = append(cenUS, us(cenD))
			extUS = append(extUS, us(extD))
			childUS = append(childUS, us(lab+walkD+cntD+tfD))
			if len(comb) < 512 {
				comb = append(comb, append([]float64(nil), v.Combined...))
				dblRows = append(dblRows, copyRows(v.DBL))
				lblRows = append(lblRows, copyRows(v.LBL))
			}
		}
		tr.add(root, 0, req, "probe.sample", t0, time.Now())
	}
	np := len(ins)
	r := b.res
	r.add("isa.decode_us", mean(decUS), "us", np, "")
	r.add("disasm.us", mean(disUS), "us", np, "")
	r.add("disasm.nodes", nodes/float64(np), "count", np, "CFG nodes per sample")
	r.add("disasm.edges", edges/float64(np), "count", np, "CFG edges per sample")
	r.add("labeling.us", mean(labUS), "us", np, "labeling.Both, DBL and LBL")
	tq := tailQuantile(np)
	r.add("labeling.us.p99", quantile(append([]float64(nil), labUS...), tq), "us", np, fmt.Sprintf("q=%.4g", tq))
	r.add("graph.centrality_us", mean(cenUS), "us", len(cenUS), "inside labeling")
	r.add("walk.us", mean(walkUS), "us", np, fmt.Sprintf("%d walks per sample", 2*wc))
	r.add("walk.steps", steps/float64(np), "count", np, "walk steps per sample")
	r.add("ngram.count_us", mean(cntUS), "us", np, "")
	r.add("ngram.grams", grams/float64(np), "count", np, "grams counted per sample")
	r.add("ngram.tfidf_us", mean(tfUS), "us", np, "")
	r.add("features.extract_us", mean(extUS), "us", len(extUS), "ExtractInto, memo miss")
	// Self time is small beside its children and the per-sample times
	// are heavy-tailed (GEA merges), so it is the median of per-sample
	// differences rather than a difference of means.
	diffs := make([]float64, len(extUS))
	for k := range extUS {
		diffs[k] = extUS[k] - childUS[k]
	}
	self := median(diffs)
	r.add("features.self_us", self, "us", len(extUS), "median over sampled inputs of ExtractInto minus labeling, walk, count, tfidf; a difference of two timings, so near zero it is noise")
	rows := []share{
		{Layer: "isa.decode", US: mean(decUS)},
		{Layer: "disasm", US: mean(disUS)},
		{Layer: "labeling", US: mean(labUS)},
		{Layer: "walk", US: mean(walkUS)},
		{Layer: "ngram.count", US: mean(cntUS)},
		{Layer: "ngram.tfidf", US: mean(tfUS)},
		{Layer: "features.self", US: self},
	}
	score, err := b.probeScoring(sys, comb, dblRows, lblRows)
	if err != nil {
		return err
	}
	rows = append(rows, score...)
	total := 0.0
	for _, s := range rows {
		total += s.US
	}
	for i := range rows {
		rows[i].Share = ratio(rows[i].US, total)
	}
	if len(r.Shares) == 0 {
		r.Shares = rows
		r.ShareBase = fmt.Sprintf("serial cost of one fresh sample, %.0f us; scoring at 512-row chunks", total)
	}
	return nil
}

// probeScoring times the detector and the CNN ensemble at batch 1 and
// at the pipeline's 512-row chunk, per sample.
func (b *bench) probeScoring(sys *soteria.System, comb [][]float64, dblRows, lblRows [][][]float64) ([]share, error) {
	p := sys.Pipeline()
	if len(comb) == 0 {
		return nil, fmt.Errorf("probe: no extracted samples to score")
	}
	if p.Options().PerWalkDetector {
		return nil, fmt.Errorf("probe: per-walk detector models are not measured")
	}
	det, ens := p.Detector, p.Ensemble
	wc := len(dblRows[0])
	const chunk = 512
	res := make([]float64, chunk)
	cls := make([]int, chunk)
	var ae1, cnn1 []float64
	for j := range comb {
		x := nn.FromRows(comb[j : j+1])
		dx, lx := nn.FromRows(dblRows[j]), nn.FromRows(lblRows[j])
		t := time.Now()
		det.ReconstructionErrorsInto(res[:1], x)
		t1 := time.Now()
		ens.VoteBatchInto(cls[:1], dx, lx, wc)
		t2 := time.Now()
		ae1 = append(ae1, us(t1.Sub(t)))
		cnn1 = append(cnn1, us(t2.Sub(t1)))
	}
	var cx, dx, lx [][]float64
	for k := 0; k < chunk; k++ {
		j := k % len(comb)
		cx = append(cx, comb[j])
		dx = append(dx, dblRows[j]...)
		lx = append(lx, lblRows[j]...)
	}
	X, DX, LX := nn.FromRows(cx), nn.FromRows(dx), nn.FromRows(lx)
	var aeC, cnnC []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		det.ReconstructionErrorsInto(res, X)
		t1 := time.Now()
		ens.VoteBatchInto(cls, DX, LX, wc)
		t2 := time.Now()
		aeC = append(aeC, us(t1.Sub(t))/chunk)
		cnnC = append(cnnC, us(t2.Sub(t1))/chunk)
	}
	flops := 0
	for _, l := range det.Network().Layers {
		if d, ok := l.(*nn.Dense); ok {
			flops += 2 * d.In * d.Out
		}
	}
	r := b.res
	r.add("autoenc.us.batch1", mean(ae1), "us", len(ae1), "")
	r.add("autoenc.us.chunk", mean(aeC), "us", len(aeC)*chunk, "per sample in a 512-row chunk")
	r.add("autoenc.flops", float64(flops), "flop", 1, "dense multiply-adds x2 per sample, from layer shapes")
	r.add("cnn.us.batch1", mean(cnn1), "us", len(cnn1), "")
	r.add("cnn.us.chunk", mean(cnnC), "us", len(cnnC)*chunk, "per sample in a 512-row chunk")
	return []share{
		{Layer: "autoenc.chunk", US: mean(aeC)},
		{Layer: "cnn.chunk", US: mean(cnnC)},
	}, nil
}

// probeTraining trains the benchmark model in-process with training
// hooks attached and splits its time: the detector's and classifier's
// epochs from the hooks, the rest (feature fitting and extraction,
// calibration) as train.features_s. The model must match the CLI's.
func (b *bench) probeTraining() error {
	counts := map[soteria.Class]int{}
	for _, c := range soteria.Classes {
		counts[c] = b.cfg.Model.TrainPerClass
	}
	corpus, err := soteria.NewGenerator(soteria.GeneratorConfig{Seed: b.cfg.Model.Seed}).Corpus(counts)
	if err != nil {
		return err
	}
	reg := soteria.NewRegistry()
	opts := soteria.DefaultOptions()
	opts.Seed = b.cfg.Model.Seed
	opts.Obs = reg
	t := time.Now()
	sys, err := soteria.Train(corpus, opts)
	if err != nil {
		return err
	}
	wall := time.Since(t).Seconds()
	snap, err := snapshotOf(reg)
	if err != nil {
		return err
	}
	_, det := snap.hist("train.detector.epoch_ns")
	_, cls := snap.hist("train.classifier.epoch_ns")
	det, cls = det/1e9, cls/1e9
	r := b.res
	r.add("train.features_s", wall-det-cls, "s", 1, "training time outside the epoch hooks")
	r.add("train.detector_s", det, "s", int(snap.count("train.detector.epochs")), "epochs")
	r.add("train.classifier_s", cls, "s", int(snap.count("train.classifier.epochs")), "epochs")
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		return err
	}
	if fp := modelFingerprint(buf.Bytes()); fp != r.Env.ModelFingerprint {
		r.mismatch("in-process training gave model %s, the CLI %s", fp, r.Env.ModelFingerprint)
	}
	return nil
}

// snapshotOf round-trips an in-process registry through its JSON form,
// so in-process and scraped metrics read the same way.
func snapshotOf(reg *soteria.Registry) (metricsSnap, error) {
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		return nil, err
	}
	var m metricsSnap
	return m, json.Unmarshal(data, &m)
}

func copyRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
