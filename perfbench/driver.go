package main

import (
	"context"
	"syscall"
	"time"
)

// sendFunc sends arrival i and reports its outcome.
type sendFunc func(ctx context.Context, i int) outcome

// outcome classifies one request. Only served requests meet a latency
// limit; shed and failed ones miss every limit.
type outcome int

const (
	served outcome = iota
	shed
	failed
)

// record is one arrival's timeline, as offsets from the phase start:
// when it was due, when the dispatcher queued it, when a connection
// sent it, and when it completed.
type record struct {
	Due, Queued, Sent, Done time.Duration
	Out                     outcome
}

// Latency is timed from the due time, so a stall anywhere — in the
// server or in this driver — also delays every arrival queued behind it.
func (r record) Latency() time.Duration { return r.Done - r.Due }

// Lag is how late the dispatcher ran: the time from the arrival's due
// time until it was queued for a connection. Waiting for a free
// connection is not lag; it is part of the arrival's latency.
func (r record) Lag() time.Duration { return r.Queued - r.Due }

// openLoop offers n arrivals at a fixed rate over at most conns
// connections. Arrival i is due at i/rate whether or not earlier ones
// have completed; an arrival that finds every connection busy waits in
// the driver, and that wait counts in its latency.
type openLoop struct {
	rate  float64
	n     int
	conns int
	send  sendFunc
}

// dueAt is arrival i's scheduled offset.
func (o openLoop) dueAt(i int) time.Duration {
	return time.Duration(float64(i) / o.rate * float64(time.Second))
}

// run offers the schedule and returns every arrival's record once all
// have completed.
func (o openLoop) run(ctx context.Context) []record {
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	recs := make([]record, o.n)
	for i := range recs {
		recs[i].Due = o.dueAt(i)
	}
	// Sized to the number of sends: the dispatcher never blocks on a
	// busy connection, so it keeps the schedule.
	queue := make(chan int, o.n)
	done := make(chan struct{})
	for w := 0; w < o.conns; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				recs[i].Sent = clock()
				recs[i].Out = o.send(ctx, i)
				recs[i].Done = clock()
			}
		}()
	}
	for i := 0; i < o.n; i++ {
		if d := recs[i].Due - clock(); d > 0 {
			preciseSleep(d)
		}
		recs[i].Queued = clock()
		queue <- i
	}
	close(queue)
	for w := 0; w < o.conns; w++ {
		<-done
	}
	return recs
}

// preciseSleep blocks the calling thread in nanosleep(2). The runtime's
// own timers wake parked goroutines on a millisecond poll timeout, which
// made the dispatcher late by about half a millisecond per arrival —
// as much as a cache hit takes to serve.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	Offered, Served, Shed, Failed int
	P50MS, TailMS, TailQ          float64
	LagP50MS, LagP99MS            float64
	ServiceP50MS                  float64
	Seconds                       float64
	Backlog                       bool
}

// summarize computes exact quantiles from the recorded samples. Shed and
// failed arrivals count as infinitely late.
func summarize(recs []record) phaseStats {
	st := phaseStats{Offered: len(recs)}
	lat := make([]float64, len(recs))
	lag := make([]float64, len(recs))
	service := make([]float64, len(recs))
	var end time.Duration
	for i, r := range recs {
		switch r.Out {
		case served:
			st.Served++
			lat[i] = ms(r.Latency())
		case shed:
			st.Shed++
			lat[i] = inf
		default:
			st.Failed++
			lat[i] = inf
		}
		lag[i] = ms(r.Lag())
		service[i] = ms(r.Done - r.Sent)
		if r.Done > end {
			end = r.Done
		}
	}
	st.Seconds = end.Seconds()
	st.TailQ = tailQuantile(len(recs))
	st.P50MS = quantile(append([]float64(nil), lat...), 0.5)
	st.TailMS = quantile(append([]float64(nil), lat...), st.TailQ)
	st.LagP50MS = quantile(lag, 0.5)
	st.LagP99MS = quantile(lag, st.TailQ)
	st.ServiceP50MS = quantile(service, 0.5)
	// A growing backlog shows as latency climbing through the phase:
	// the last third's median well above the first third's.
	if k := len(recs) / 3; k >= 10 {
		first := quantile(append([]float64(nil), lat[:k]...), 0.5)
		last := quantile(append([]float64(nil), lat[len(lat)-k:]...), 0.5)
		st.Backlog = last > 2*first+10
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
