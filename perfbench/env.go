package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envRecord is where and what a result was measured on. Results from
// different CPUs are not comparable; see runCompare.
type envRecord struct {
	CPU              string `json:"cpu"`
	NProc            int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	ModelFingerprint string `json:"model_fingerprint"`
}

func recordEnv(root string) envRecord {
	return envRecord{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH + " (cpu model unknown)"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH + " (cpu model unknown)"
}

// commitOf names the measured source: the git commit when the checkout
// is a repository, otherwise a hash of the Go sources and assembly.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the hash
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(p); !d.IsDir() && (ext == ".go" || ext == ".s" || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// modelFingerprint is the sha256 of a model's Save stream, which is the
// pipeline's own fingerprint (core.Pipeline.Fingerprint hashes the same
// stream).
func modelFingerprint(saved []byte) string {
	sum := sha256.Sum256(saved)
	return hex.EncodeToString(sum[:])[:16]
}

// fileFingerprint is the fingerprint of a saved model file.
func fileFingerprint(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return modelFingerprint(data), nil
}

// runCompare prints per-metric deltas between two result files and
// refuses results taken on different CPUs, core counts or GOMAXPROCS.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare base.json new.json")
	}
	var rs [2]result
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if err := comparable(rs[0], rs[1]); err != nil {
		return err
	}
	base := map[string]metric{}
	for _, m := range rs[0].Metrics {
		base[m.Name] = m
	}
	fmt.Printf("%s seed %d -> %s seed %d on %s\n", rs[0].Env.Commit, rs[0].Seed, rs[1].Env.Commit, rs[1].Seed, rs[1].Env.CPU)
	for _, m := range rs[1].Metrics {
		b, ok := base[m.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-26s %14.6g -> %14.6g %-6s %+7.1f%%\n", m.Name, b.Value, m.Value, m.Unit, 100*ratio(m.Value-b.Value, b.Value))
	}
	return nil
}

// comparable rejects a pair of results whose hardware differs.
func comparable(a, b result) error {
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("different runs: %s/trace=%v vs %s/trace=%v", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	ea, eb := a.Env, b.Env
	if ea.CPU != eb.CPU || ea.NProc != eb.NProc || ea.GOMAXPROCS != eb.GOMAXPROCS {
		return fmt.Errorf("results from different machines are not comparable: %q nproc=%d gomaxprocs=%d vs %q nproc=%d gomaxprocs=%d",
			ea.CPU, ea.NProc, ea.GOMAXPROCS, eb.CPU, eb.NProc, eb.GOMAXPROCS)
	}
	return nil
}
