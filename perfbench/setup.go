package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// train runs `soteria -train-per-class N -seed S -save path`: the
// benchmark model at its fixed scale, from its own seeded corpus.
func (b *bench) train(path string) error {
	cmd := exec.Command(b.soteria,
		"-train-per-class", fmt.Sprint(b.cfg.Model.TrainPerClass),
		"-seed", fmt.Sprint(b.cfg.Model.Seed),
		"-save", path)
	cmd.SysProcAttr = childAttr()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("train: %w: %s", err, stderr.String())
	}
	return nil
}

// setupRepeated runs one set-up repeatedly: train, save, then start
// whatever the workload serves from the model, up to the point it is
// ready (a healthy /healthz for a server). The clock stops there; start
// returns a teardown, which runs untimed for every repeat but the last.
// setup_s is the median repeat, and every repeat must produce a
// byte-identical model.
func (b *bench) setupRepeated(start func(model string) (teardown func(), err error)) (string, error) {
	var times []float64
	var model, fp string
	for r := 0; r < b.cfg.SetupRepeats; r++ {
		model = filepath.Join(b.dir, fmt.Sprintf("model-%d.json", r))
		t := time.Now()
		if err := b.train(model); err != nil {
			return "", err
		}
		teardown, err := start(model)
		if err != nil {
			return "", err
		}
		times = append(times, time.Since(t).Seconds())
		if r < b.cfg.SetupRepeats-1 {
			teardown()
		}
		got, err := fileFingerprint(model)
		if err != nil {
			return "", err
		}
		if fp != "" && got != fp {
			b.res.mismatch("setup %d trained model %s, earlier repeats %s", r, got, fp)
		}
		fp = got
	}
	b.res.Env.ModelFingerprint = fp
	b.res.add("setup_s", median(times), "s", len(times), "median set-up: train, save, load or start to first healthy /healthz")
	return model, nil
}

// childAttr makes a child die with the benchmark, so a killed run
// leaves no server behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// server is a soteria process started by the benchmark.
type server struct {
	cmd     *exec.Cmd
	url     string
	logs    bytes.Buffer
	drained chan struct{}
}

// startServer starts soteria with args, waits for it to print its
// listen address (argument 0 means an OS-chosen port), then for a
// healthy /healthz.
func (b *bench) startServer(args ...string) (*server, error) {
	cmd := exec.Command(b.soteria, args...)
	cmd.SysProcAttr = childAttr()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			for _, p := range []string{"serving on ", "fleet front door on "} {
				if i := strings.Index(line, p); i >= 0 {
					f := strings.Fields(line[i+len(p):])
					if len(f) > 0 {
						select {
						case addr <- f[0]:
						default:
						}
					}
				}
			}
			if s.logs.Len() < 1<<16 {
				s.logs.WriteString(line + "\n")
			}
		}
		_, _ = io.Copy(io.Discard, pipe)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
	case <-s.drained:
		_ = cmd.Wait()
		return nil, fmt.Errorf("soteria %v exited before listening: %s", args, s.logs.String())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("soteria %v did not listen within 60s", args)
	}
	if err := waitHealthy(s.url); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s/healthz not healthy within 30s", url)
}

// stop shuts the server down gracefully (SIGTERM, then SIGKILL after
// 20s), waits for it to exit, and returns its peak RSS in MB.
func (s *server) stop() float64 {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-s.drained
		_ = s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	return 0
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// cpuSeconds is the server's user+system CPU time so far, from
// /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", s.cmd.Process.Pid)
	}
	var ut, st float64
	if _, err := fmt.Sscan(f[11], &ut); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &st); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// cpuOf sums the CPU seconds of several servers.
func cpuOf(servers ...*server) (float64, error) {
	total := 0.0
	for _, s := range servers {
		c, err := s.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// selfRSSMB is this process's peak RSS in MB.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// scrape reads a server's /metrics snapshot.
func scrape(ctx context.Context, url string) (metricsSnap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m metricsSnap
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", url, err)
	}
	return m, nil
}

// metricsSnap is a /metrics JSON snapshot (or an in-process
// Registry.Snapshot round-tripped through JSON).
type metricsSnap map[string]json.RawMessage

// count reads a counter or gauge (0 when absent).
func (m metricsSnap) count(name string) float64 {
	var v float64
	_ = json.Unmarshal(m[name], &v)
	return v
}

// hist reads a histogram's exact count and sum. Quantiles are never
// read from the snapshot: its buckets are 2x wide and clamp.
func (m metricsSnap) hist(name string) (count, sum float64) {
	var h struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	}
	_ = json.Unmarshal(m[name], &h)
	return h.Count, h.Sum
}

// histDelta is the mean of the observations between two snapshots.
func histDelta(before, after metricsSnap, name string) (mean float64, n float64) {
	c0, s0 := before.hist(name)
	c1, s1 := after.hist(name)
	return ratio(s1-s0, c1-c0), c1 - c0
}
