package main

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"
)

// The schedule — every arrival's due time and input — is a pure
// function of the seed: two builds of it agree byte for byte, and
// another seed changes the inputs and salts.
func TestScheduleDeterministicPerSeed(t *testing.T) {
	o := openLoop{rate: 250}
	for i := 0; i < 100; i++ {
		if got, want := o.dueAt(i), time.Duration(i)*4*time.Millisecond; got != want {
			t.Fatalf("arrival %d due at %v, want %v", i, got, want)
		}
	}
	a, err := genInputs(7, streamTimed, 0, 24, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(7, streamTimed, 0, 24, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genInputs(8, streamTimed, 0, 24, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	geas := 0
	for i := range a {
		if !bytes.Equal(a[i].raw, b[i].raw) || a[i].salt != b[i].salt || a[i].gea != b[i].gea || a[i].class != b[i].class {
			t.Fatalf("seed 7 input %d differs between generations", i)
		}
		if a[i].salt == c[i].salt {
			t.Fatalf("input %d has the same salt under seeds 7 and 8", i)
		}
		if a[i].gea {
			geas++
		}
	}
	if geas == 0 || geas == len(a) {
		t.Fatalf("%d of %d inputs are GEA merges; want a mix", geas, len(a))
	}
	// A later slice of a stream is the same inputs as that part of a
	// longer generation, so batch boundaries never change the inputs.
	tail, err := genInputs(7, streamTimed, 12, 12, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tail {
		if !bytes.Equal(tail[i].raw, a[12+i].raw) || tail[i].salt != a[12+i].salt {
			t.Fatalf("input %d differs when generated from offset 12", 12+i)
		}
	}
	// Other streams (warm-up, peak) never reuse a timed input's salt.
	warm, err := genInputs(7, streamWarmup, 0, 24, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, in := range append(a, warm...) {
		if seen[in.salt] {
			t.Fatalf("salt %d repeats across streams", in.salt)
		}
		seen[in.salt] = true
	}
	for i := 0; i < 50; i++ {
		if repeatPick(7, i, 1024) != repeatPick(7, i, 1024) {
			t.Fatal("repeat picks are not deterministic")
		}
	}
}

// A stall in one request delays the arrivals queued behind it, and the
// driver charges that wait to them: latency runs from the due time,
// not from the moment a connection became free.
func TestDueTimeAccountingUnderStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	o := openLoop{rate: 1000, n: 40, conns: 1, send: func(_ context.Context, i int) outcome {
		if i == 5 {
			time.Sleep(stall)
		}
		return served
	}}
	recs := o.run(context.Background())
	for i := 6; i < 40; i++ {
		r := recs[i]
		// Arrival i is due at i ms and cannot start before the stalled
		// request ends at 5ms + stall.
		if floor := 5*time.Millisecond + stall - r.Due; r.Latency() < floor-time.Millisecond {
			t.Fatalf("arrival %d latency %v, want at least %v", i, r.Latency(), floor)
		}
		if service := r.Done - r.Sent; r.Latency() <= service {
			t.Fatalf("arrival %d latency %v not above its service time %v", i, r.Latency(), service)
		}
		if r.Lag() > 20*time.Millisecond {
			t.Fatalf("arrival %d: dispatcher lag %v; waiting for the connection is not lag", i, r.Lag())
		}
	}
	st := summarize(recs)
	if st.Served != 40 || st.P50MS < ms(stall)/2 {
		t.Fatalf("summary %+v: want all served and a median carrying the stall", st)
	}
}

// Shed and failed requests count as missing every latency limit.
func TestFailuresMissTheLimit(t *testing.T) {
	recs := make([]record, 100)
	for i := range recs {
		recs[i] = record{Due: time.Duration(i) * time.Millisecond, Done: time.Duration(i)*time.Millisecond + time.Millisecond}
	}
	// Eleven of 100 refused: the tail quantile (q=0.9, ten samples
	// beyond it) must land on a refusal although every served request
	// took 1ms.
	for i := 0; i < 11; i++ {
		recs[i].Out = shed + outcome(i%2)
	}
	st := summarize(recs)
	if st.Shed != 6 || st.Failed != 5 || st.Served != 89 {
		t.Fatalf("counts %+v", st)
	}
	if !math.IsInf(st.TailMS, 1) || st.P50MS != 1 {
		t.Fatalf("p50 %.3f ms, tail %.3f ms at q=%.2f; want 1 and +Inf", st.P50MS, st.TailMS, st.TailQ)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {500, 0.98}, {100, 0.9}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		beyond := 0
		q := quantile(xs, tailQuantile(c.n))
		for _, x := range xs {
			if x > q {
				beyond++
			}
		}
		if c.n <= 1000 && beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail quantile, want 10", c.n, beyond)
		}
	}
}
