package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"soteria"
	"soteria/internal/gea"
	"soteria/internal/malgen"
)

// input is one generated binary with its ground truth: the class of
// the original program and whether a GEA merge made it adversarial.
type input struct {
	raw   []byte
	salt  int64
	class soteria.Class
	gea   bool
	nodes int
}

// Input streams: each phase of a run draws from its own stream, so a
// warm-up never shares an input (or a salt) with a timed phase.
const (
	streamWarmup uint64 = 1 + iota
	streamTimed
	streamPeak
	streamPool
	streamLadder // + step index
)

// splitmix64 is a stateless mixer: the same (seed, stream, i) always
// gives the same value, whatever order inputs are generated in.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func mix(seed int64, stream uint64, i int) uint64 {
	return splitmix64(splitmix64(splitmix64(uint64(seed))^stream) ^ uint64(i))
}

// saltFor derives an input's walk salt from the run seed: a new seed
// gives new salts, so no cache entry from an earlier run can answer.
func saltFor(seed int64, stream uint64, i int) int64 {
	return int64(mix(seed, stream|1<<32, i) >> 2)
}

// paperShare is Table II's class composition, the traffic mix, as
// cumulative shares in class order.
var paperShare = func() []float64 {
	total := 0
	for _, c := range soteria.Classes {
		total += malgen.PaperCounts[c]
	}
	out := make([]float64, len(soteria.Classes))
	acc := 0
	for i, c := range soteria.Classes {
		acc += malgen.PaperCounts[c]
		out[i] = float64(acc) / float64(total)
	}
	return out
}()

// Draw dimensions of the low-discrepancy sequence.
const (
	dimClass = iota
	dimSize
	dimTarget
	dims
)

// rdAlpha holds the R_d sequence steps for three dimensions: powers of
// 1/phi, phi the positive root of x^4 = x + 1.
var rdAlpha = func() [dims]float64 {
	const phi = 1.2207440846057596
	var a [dims]float64
	x := 1.0
	for d := range a {
		x /= phi
		a[d] = x
	}
	return a
}()

// draw is point i's coordinate in one dimension: an R_d point shifted
// by a seed-derived offset. Consecutive inputs cover the class mix and
// each class's size quantiles evenly, so the total work of a run varies
// far less between seeds than independent draws would, while every seed
// still gives different inputs.
func draw(seed int64, stream uint64, dim, i int) float64 {
	off := float64(mix(seed, stream|uint64(dim+1)<<40, 0)>>11) / (1 << 53)
	_, f := math.Modf(off + float64(i+1)*rdAlpha[dim])
	return f
}

// classAt maps a draw to a class by the paper mix.
func classAt(u float64) soteria.Class {
	for i, s := range paperShare {
		if u < s {
			return soteria.Classes[i]
		}
	}
	return soteria.Classes[len(soteria.Classes)-1]
}

// nodesAt is the class's Table III size quantile function (piecewise
// linear through minimum, median and maximum), as the generator's own
// size draw uses it.
func nodesAt(c soteria.Class, q float64) int {
	st := malgen.PaperSizes[c]
	v := float64(st.Median) + (float64(st.Max)-float64(st.Median))*(q-0.5)*2
	if q < 0.5 {
		v = float64(st.Min) + (float64(st.Median)-float64(st.Min))*q*2
	}
	return int(v + 0.5)
}

// genInputs makes inputs lo..lo+n-1 of one stream: fresh paper-mix
// binaries, a share of them GEA merges, generated in parallel but
// deterministic per (seed, stream, index).
func genInputs(seed int64, stream uint64, lo, n int, geaShare float64) ([]input, error) {
	out := make([]input, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i], errs[i] = genOne(seed, stream, lo+i, geaShare)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("input %d of stream %d: %w", lo+i, stream, err)
		}
	}
	return out, nil
}

func genOne(seed int64, stream uint64, i int, geaShare float64) (input, error) {
	rng := rand.New(rand.NewSource(int64(mix(seed, stream, i))))
	gen := soteria.NewGenerator(soteria.GeneratorConfig{Seed: rng.Int63()})
	c := classAt(draw(seed, stream, dimClass, i))
	s, err := gen.SampleSized(c, nodesAt(c, draw(seed, stream, dimSize, i)))
	if err != nil {
		return input{}, err
	}
	in := input{class: c, salt: saltFor(seed, stream, i)}
	// Every period-th input is a GEA merge. Merges are the heaviest
	// inputs, so their targets are stratified on their own: the target
	// class cycles through the other classes and the target size walks
	// a one-dimensional sequence over the merges alone.
	period := max(1, int(1/geaShare+0.5))
	if geaShare <= 0 || i%period != period-1 {
		in.raw, err = s.Binary.Encode()
		in.nodes = s.Nodes()
		return in, err
	}
	j := i / period
	k := len(soteria.Classes) - 1
	tc := soteria.Classes[(j+int(mix(seed, stream, -1)%uint64(k)))%k]
	if tc >= c {
		tc++
	}
	t, err := gen.SampleSized(tc, nodesAt(tc, draw(seed, stream, dimTarget, j)))
	if err != nil {
		return input{}, err
	}
	bin, cfg, err := soteria.GEAMerge(s.Program, t.Program)
	if err != nil {
		return input{}, err
	}
	in.gea = true
	in.nodes = cfg.NumNodes()
	in.raw, err = bin.Encode()
	return in, err
}

// padded returns a byte-level variant of raw whose CFG is unchanged:
// the donor's text appended after the final halt (kind 1) or as an
// unreachable section (kind 2). Kind 0 is raw itself.
func padded(raw, donor []byte, kind int) ([]byte, error) {
	if kind == 0 {
		return raw, nil
	}
	bin, err := soteria.ParseBinary(raw)
	if err != nil {
		return nil, err
	}
	d, err := soteria.ParseBinary(donor)
	if err != nil {
		return nil, err
	}
	if kind == 1 {
		return gea.AppendBytesAE(bin, d).Encode()
	}
	return gea.AppendSectionAE(bin, d).Encode()
}

func raws(ins []input) [][]byte {
	out := make([][]byte, len(ins))
	for i := range ins {
		out[i] = ins[i].raw
	}
	return out
}

func salts(ins []input) []int64 {
	out := make([]int64, len(ins))
	for i := range ins {
		out[i] = ins[i].salt
	}
	return out
}

func meanNodes(ins []input) float64 {
	s := 0
	for _, in := range ins {
		s += in.nodes
	}
	return ratio(float64(s), float64(len(ins)))
}
